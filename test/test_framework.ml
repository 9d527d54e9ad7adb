(* The unified attack framework: budgets, instrumented oracles and the
   attack registry. *)

let comb_circuit seed =
  let net =
    Generator.generate
      {
        Generator.gen_name = Printf.sprintf "fw%d" seed;
        seed;
        n_pi = 8;
        n_po = 5;
        n_ff = 8;
        n_gates = 60;
        depth = 8;
        ff_depth_bias = 0.2;
      }
  in
  fst (Combinationalize.run net)

(* ----- Budget ----- *)

let test_budget_iterations () =
  let b = Budget.create ~max_iterations:3 () in
  Budget.tick b;
  Budget.tick b;
  Budget.tick b;
  Alcotest.(check int) "three ticks" 3 (Budget.iterations b);
  Alcotest.check_raises "fourth tick trips" (Budget.Exhausted Budget.Iterations)
    (fun () -> Budget.tick b);
  (* the raise happens before the increment: the counter still reads the
     number of completed iterations *)
  Alcotest.(check int) "count unchanged" 3 (Budget.iterations b);
  Alcotest.(check bool) "tripped recorded" true
    (Budget.tripped b = Some Budget.Iterations)

let test_budget_queries () =
  let b = Budget.create ~max_queries:10 () in
  Budget.note_queries b 8;
  Alcotest.(check int) "charged" 8 (Budget.queries b);
  (try
     Budget.note_queries b 5;
     Alcotest.fail "query cap should trip"
   with Budget.Exhausted Budget.Queries -> ());
  Alcotest.(check bool) "tripped recorded" true
    (Budget.tripped b = Some Budget.Queries)

let test_budget_deadline () =
  let b = Budget.create ~deadline_s:0.0 () in
  Alcotest.check_raises "expired deadline trips"
    (Budget.Exhausted Budget.Deadline) (fun () -> Budget.check b);
  Alcotest.(check bool) "unlimited never trips" true
    (let u = Budget.unlimited () in
     Budget.tick u;
     Budget.check u;
     Budget.tripped u = None);
  Alcotest.check_raises "negative cap rejected"
    (Invalid_argument "Budget.create: max_iterations < 0") (fun () ->
      ignore (Budget.create ~max_iterations:(-1) ()))

(* ----- Oracle ----- *)

(* The chip's reply to [q] by the naive reference walk, independent of
   the engine: unnamed sources read false, a repeated name last-wins. *)
let reference_query net q =
  let value = Hashtbl.of_seq (List.to_seq q) in
  let values =
    Ref_sim.eval_comb net (fun id ->
        Option.value ~default:false
          (Hashtbl.find_opt value (Netlist.node net id).Netlist.name))
  in
  List.map (fun (po, d) -> (po, values.(d))) (Netlist.outputs net)

let test_oracle_memo_and_counts () =
  let comb = comb_circuit 60 in
  let o = Oracle.of_netlist comb in
  let names = Oracle.input_names o in
  let dip = List.map (fun n -> (n, true)) names in
  let r1 = Oracle.query o dip in
  let r2 = Oracle.query o (List.rev dip) in
  Alcotest.(check bool) "same response" true (r1 = r2);
  Alcotest.(check int) "one real eval" 1 (Oracle.queries o);
  Alcotest.(check int) "one memo hit" 1 (Oracle.memo_hits o);
  (* a batch with duplicates charges only the distinct misses *)
  let dip2 = List.map (fun n -> (n, false)) names in
  let rs = Oracle.query_batch o [ dip; dip2; dip2; dip ] in
  Alcotest.(check int) "batch items" 4 (List.length rs);
  Alcotest.(check int) "one new eval" 2 (Oracle.queries o);
  Alcotest.(check bool) "batch agrees with scalar" true
    (List.nth rs 0 = r1 && List.nth rs 1 = List.nth rs 2)

let test_oracle_budget_charging () =
  let comb = comb_circuit 61 in
  let budget = Budget.create ~max_queries:2 () in
  let o = Oracle.with_budget budget (Oracle.of_netlist comb) in
  let names = Oracle.input_names o in
  let dip b = List.map (fun n -> (n, b)) names in
  ignore (Oracle.query o (dip true));
  ignore (Oracle.query o (dip true));
  (* memo hit: free *)
  Alcotest.(check int) "memo hits are not charged" 1 (Budget.queries budget);
  Alcotest.check_raises "cap trips on a fresh query"
    (Budget.Exhausted Budget.Queries) (fun () ->
      ignore (Oracle.query o (dip false));
      ignore
        (Oracle.query_batch o
           [
             List.mapi (fun i n -> (n, i mod 2 = 0)) names;
             List.mapi (fun i n -> (n, i mod 2 = 1)) names;
           ]))

let test_oracle_batch_equals_scalar () =
  let comb = comb_circuit 62 in
  let batched = Oracle.of_netlist comb in
  let scalar = Oracle.of_netlist ~memo:false comb in
  let names = Oracle.input_names batched in
  let rng = Random.State.make [| 62; 0xba7c |] in
  (* more dips than one 63-lane word, to cross a chunk boundary *)
  let dips =
    List.init 150 (fun _ ->
        List.map (fun n -> (n, Random.State.bool rng)) names)
  in
  let rs = Oracle.query_batch batched dips in
  List.iter2
    (fun dip r ->
      if Oracle.query scalar dip <> r then
        Alcotest.fail "batched response differs from scalar evaluation";
      if r <> reference_query comb dip then
        Alcotest.fail "batched response differs from Ref_sim")
    dips rs

let test_oracle_memo_cap () =
  let comb = comb_circuit 64 in
  let o = Oracle.of_netlist ~memo_cap:3 comb in
  let names = Oracle.input_names o in
  let dip i = List.mapi (fun j n -> (n, (i lsr j) land 1 = 1)) names in
  for i = 0 to 4 do
    ignore (Oracle.query o (dip i))
  done;
  Alcotest.(check int) "five real evals" 5 (Oracle.queries o);
  Alcotest.(check int) "two FIFO evictions" 2 (Oracle.memo_evictions o);
  (* the most recent entries are still resident *)
  ignore (Oracle.query o (dip 4));
  Alcotest.(check int) "recent entry hits" 1 (Oracle.memo_hits o);
  Alcotest.(check int) "a hit does not evict" 2 (Oracle.memo_evictions o);
  (* the oldest entry was evicted: re-querying re-evaluates and recounts *)
  ignore (Oracle.query o (dip 0));
  Alcotest.(check int) "evicted entry re-evaluated" 6 (Oracle.queries o);
  Alcotest.(check int) "re-insertion evicts the next oldest" 3
    (Oracle.memo_evictions o);
  Alcotest.check_raises "cap must be positive"
    (Invalid_argument
       "Oracle: memo_cap must be >= 1 (use ~memo:false to disable)") (fun () ->
      ignore (Oracle.of_netlist ~memo_cap:0 comb))

(* A black box over inputs [a], [b], [c] and the one output
   [y = a && b && c]; [fn] answers one packed query. *)
let and_box ~batch fn =
  Oracle.of_packed ~name:"box" ~inputs:[ "a"; "b"; "c" ] ~outputs:[ "y" ] ~batch fn

let all_set q =
  Bitpack.init 1 (fun _ -> Bitpack.get q 0 && Bitpack.get q 1 && Bitpack.get q 2)

(* A black box's memo key is a named query's packed inputs, whatever
   order the pins are listed in. *)
let test_oracle_box_key_memo () =
  let calls = ref 0 in
  let fn q =
    incr calls;
    all_set q
  in
  let o = and_box ~batch:(Array.map fn) fn in
  let q1 = [ ("a", true); ("b", false); ("c", true) ] in
  let q2 = [ ("c", true); ("a", true); ("b", false) ] in
  let r1 = Oracle.query o q1 in
  let r2 = Oracle.query o q2 in
  Alcotest.(check bool) "same response" true (r1 = r2);
  Alcotest.(check int) "permutation is a memo hit" 1 !calls;
  Alcotest.(check int) "hit counted" 1 (Oracle.memo_hits o);
  ignore (Oracle.query o [ ("a", false); ("b", false); ("c", true) ]);
  Alcotest.(check int) "distinct assignment evaluated" 2 !calls;
  Alcotest.(check int) "real evals counted" 2 (Oracle.queries o)

(* [query q] runs [query_batch [q]]'s pipeline: over a sequence with
   repeats and a two-entry memo, an oracle asked one way and its twin
   asked the other give the same reply and the same counters after every
   step, for a netlist and a black box, strict and relaxed, with the memo
   on and off.  A black box answers [query] with [fn] and [query_batch]
   with its [batch]. *)
let test_oracle_one_path () =
  let comb = comb_circuit 67 in
  let names = Oracle.input_names (Oracle.of_netlist comb) in
  let vec i = List.mapi (fun j n -> (n, (i lsr j) land 1 = 1)) names in
  (* the relaxed oracles' queries leave the last source unnamed *)
  let short i = List.filteri (fun j _ -> j < List.length names - 1) (vec i) in
  let fn_calls = ref 0 and batch_calls = ref 0 in
  let reply q =
    let named = List.mapi (fun j n -> (n, Bitpack.get q j)) names in
    let r = Array.of_list (reference_query comb named) in
    Bitpack.init (Array.length r) (fun i -> snd r.(i))
  in
  let fn q =
    incr fn_calls;
    reply q
  in
  let batch qs =
    incr batch_calls;
    Array.map reply qs
  in
  let cap memo = if memo then Some 2 else None in
  let box memo =
    Oracle.of_packed ~memo ?memo_cap:(cap memo) ~name:"box" ~inputs:names
      ~outputs:(List.map fst (Netlist.outputs comb))
      ~batch fn
  in
  let cases =
    [
      ( "netlist",
        vec,
        fun memo -> Oracle.of_netlist ~memo ?memo_cap:(cap memo) comb );
      ( "partial netlist",
        short,
        fun memo ->
          Oracle.of_netlist ~partial:true ~memo ?memo_cap:(cap memo) comb );
      ("of_packed", vec, box);
      ("relaxed of_packed", short, fun memo -> Oracle.relax (box memo));
    ]
  in
  let counters o =
    (Oracle.queries o, Oracle.memo_hits o, Oracle.memo_evictions o)
  in
  let calls f =
    let f0 = !fn_calls and b0 = !batch_calls in
    let r = f () in
    (r, (!fn_calls - f0, !batch_calls - b0))
  in
  List.iter
    (fun (name, vec, mk) ->
      List.iter
        (fun memo ->
          let one = mk memo and many = mk memo in
          List.iteri
            (fun step i ->
              let what = Printf.sprintf "%s memo=%b step %d" name memo step in
              let q = vec i in
              let misses = Oracle.queries one in
              let r, one_calls = calls (fun () -> Oracle.query one q) in
              let misses = Oracle.queries one - misses in
              let rs, many_calls =
                calls (fun () -> Oracle.query_batch many [ q ])
              in
              Alcotest.(check bool) (what ^ ": reply = Ref_sim") true
                (r = reference_query comb q);
              Alcotest.(check bool) (what ^ ": same reply") true (rs = [ r ]);
              Alcotest.(check (triple int int int))
                (what ^ ": same counters") (counters one) (counters many);
              if String.ends_with ~suffix:"of_packed" name then begin
                Alcotest.(check (pair int int))
                  (what ^ ": query calls fn") (misses, 0) one_calls;
                Alcotest.(check (pair int int))
                  (what ^ ": query_batch calls batch") (0, misses) many_calls
              end)
            [ 0; 1; 0; 2; 3; 1; 0; 4; 4; 2 ];
          (* FIFO over two entries: 8 misses, 2 hits, 6 evictions *)
          Alcotest.(check (triple int int int))
            (Printf.sprintf "%s memo=%b totals" name memo)
            (if memo then (8, 2, 6) else (10, 0, 0))
            (counters one))
        [ true; false ])
    cases

(* A black box deduplicates within a batch: the repeated query is
   neither evaluated again nor counted as a memo hit, and both misses
   are charged before [batch] runs. *)
let test_oracle_box_dedup () =
  let budget = Budget.create () in
  let batches = ref [] in
  let batch qs =
    batches := (Array.length qs, Budget.queries budget) :: !batches;
    Array.map all_set qs
  in
  let o = Oracle.with_budget budget (and_box ~batch all_set) in
  let q0 = [ ("a", true); ("b", true); ("c", true) ] in
  let q1 = [ ("a", false); ("b", true); ("c", true) ] in
  let rs = Oracle.query_batch o [ q0; q0; q1 ] in
  Alcotest.(check (list (list (pair string bool))))
    "replies in request order"
    [ [ ("y", true) ]; [ ("y", true) ]; [ ("y", false) ] ]
    rs;
  Alcotest.(check (list (pair int int)))
    "one batch of both distinct queries, charged before it runs"
    [ (2, 2) ] !batches;
  Alcotest.(check int) "distinct queries charged" 2 (Oracle.queries o);
  Alcotest.(check int) "no memo hit" 0 (Oracle.memo_hits o)

(* forced shard counts must not change results, counters, or ordering.
   4200 queries make 1, 2 and 4 shards of 4200, 2100 and 1050 lanes:
   each crosses at least two 504-lane block boundaries and ends on a
   partial block. *)
let test_oracle_sharded_batch () =
  let comb = comb_circuit 65 in
  let scalar = Oracle.of_netlist ~memo:false comb in
  let names = Oracle.input_names scalar in
  let rng = Random.State.make [| 65; 0x5ad |] in
  let dips =
    List.init 4200 (fun _ ->
        List.map (fun n -> (n, Random.State.bool rng)) names)
  in
  let expect = List.map (Oracle.query scalar) dips in
  Alcotest.(check bool) "scalar = Ref_sim" true
    (List.for_all2 (fun dip r -> r = reference_query comb dip) dips expect);
  List.iter
    (fun shards ->
      let o = Oracle.of_netlist ~shards comb in
      let rs = Oracle.query_batch o dips in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards = scalar" shards)
        true (rs = expect))
    [ 1; 2; 4 ]

(* The memo keeps packed bits: an s38417 entry is its 199-byte input
   and 209-byte output vector plus table cells, so 500 distinct queries
   grow the live heap by well under 1 KB each (named keys and replies
   took 41.8 KB). *)
let test_oracle_memo_footprint () =
  let comb = fst (Combinationalize.run (Benchmarks.by_name "s38417")) in
  let o = Oracle.of_netlist ~shards:1 comb in
  let names = Oracle.input_names o in
  let rng = Random.State.make [| 38417 |] in
  let query () =
    ignore
      (Oracle.query o (List.map (fun n -> (n, Random.State.bool rng)) names))
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  query ();
  let before = live_words () in
  for _ = 1 to 500 do
    query ()
  done;
  let per_entry = (live_words () - before) * (Sys.word_size / 8) / 500 in
  Alcotest.(check int) "501 distinct queries evaluated" 501 (Oracle.queries o);
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes per memo entry" per_entry)
    true (per_entry < 1024)

(* ----- Sampler: the packed key check ----- *)

(* The named samplers that Sampler replaced, as they stood: each drew
   [samples] named vectors over [drive], sent them to [chip] and, with
   [fixed] appended, to [candidate], and compared the named replies
   through an output index of the candidate netlist [net]: a chip output
   that [net] lacks counted as a difference exactly when [missing]. *)
let named_differs net ~missing =
  let outs = Netlist.outputs net in
  let index = Hashtbl.create (List.length outs) in
  List.iteri (fun i (po, _) -> Hashtbl.replace index po i) outs;
  let buf = Bytes.make (List.length outs) '\000' in
  fun exp got ->
    List.iteri (fun i (_, w) -> Bytes.set buf i (if w then '\001' else '\000')) got;
    List.exists
      (fun (po, v) ->
        match Hashtbl.find_opt index po with
        | Some i -> v <> (Bytes.get buf i = '\001')
        | None -> missing)
      exp

let named_mismatches ~net ~rng ~samples ~chip ~candidate ~drive ~fixed ~missing =
  let dips = ref [] in
  for _ = 1 to samples do
    dips := List.map (fun n -> (n, Random.State.bool rng)) drive :: !dips
  done;
  let dips = List.rev !dips in
  let expected = Oracle.query_batch chip dips in
  let got = Oracle.query_batch candidate (List.map (fun d -> d @ fixed) dips) in
  let differs = named_differs net ~missing in
  List.concat
    (List.map2
       (fun (dip, exp) g -> if differs exp g then [ (dip, exp) ] else [])
       (List.combine dips expected) got)

(* [net] with its input and output declarations reversed: the same
   function with every pin at another position. *)
let reversed_pins net =
  let lines = String.split_on_char '\n' (Bench_format.print net) in
  let is p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  let pin l = is "INPUT(" l || is "OUTPUT(" l in
  Bench_format.parse ~name:(Netlist.name net)
    (String.concat "\n"
       (List.rev (List.filter (is "INPUT(") lines)
       @ List.rev (List.filter (is "OUTPUT(") lines)
       @ List.filter (fun l -> not (pin l)) lines))

let with_pins net ~inputs ~outputs =
  let n = Netlist.copy net in
  List.iter (fun i -> ignore (Netlist.add_input n i)) inputs;
  let driver = snd (List.hd (Netlist.outputs n)) in
  List.iter (fun o -> Netlist.add_output n o driver) outputs;
  n

(* [f ()] and the oracle metrics it moved *)
let metered f =
  let names = [ "oracle.queries"; "oracle.memo_hits"; "oracle.partial_defaults" ] in
  let metric n = Obs.Metrics.value (Obs.Metrics.counter n) in
  let before = List.map metric names in
  let r = f () in
  (r, List.map2 (fun n b -> (n, metric n - b)) names before)

(* The three checks on [chip ()] and a candidate [locked]: verify_key's
   (a relaxed chip, a fresh partial candidate), AppSAT's estimate (the
   chip as given, a strict candidate whose memo lives across estimates,
   two estimates from one generator) and the removal check's (a relaxed
   chip, a strict candidate, every candidate input driven, leftover key
   inputs too).  [check] is the named copy or the sampler. *)
let three_checks ~chip ~locked ~key_inputs ~key ~check =
  let names ids = List.map (fun pi -> (Netlist.node locked pi).Netlist.name) ids in
  let x_names = names (Dip_miter.x_inputs locked ~key_inputs) in
  let verify =
    metered (fun () ->
        check ~rng:(Random.State.make [| 3; 0x5646 |]) ~samples:64
          ~chip:(Oracle.relax (chip ()))
          ~candidate:(Oracle.of_netlist ~partial:true locked)
          ~drive:x_names ~fixed:key ~missing:true)
  in
  let appsat =
    let c = chip () and candidate = Oracle.of_netlist locked in
    let rng = Random.State.make [| 3; 0x4150 |] in
    metered (fun () ->
        List.concat
          (List.init 2 (fun _ ->
               check ~rng ~samples:50 ~chip:c ~candidate ~drive:x_names ~fixed:key
                 ~missing:false)))
  in
  let removal =
    metered (fun () ->
        check ~rng:(Random.State.make [| 3; 0x524d |]) ~samples:128
          ~chip:(Oracle.relax (chip ()))
          ~candidate:(Oracle.of_netlist locked)
          ~drive:(names (Netlist.inputs locked)) ~fixed:[] ~missing:false)
  in
  [ ("verify", verify); ("AppSAT", appsat); ("removal", removal) ]

let test_sampler_matches_named () =
  let comb = fst (Combinationalize.run (Benchmarks.by_name "s5378")) in
  let lk = Xor_lock.lock ~seed:5 comb ~n_keys:16 in
  let keys = lk.Locked.key_inputs in
  let flipped = Key.flip lk.Locked.correct_key (List.hd keys) in
  (* every pin of this chip sits at another position than in [comb] *)
  let moved = reversed_pins (with_pins comb ~inputs:[ "chip_only" ] ~outputs:[ "chip_out" ]) in
  let box_chip net () =
    let o = Oracle.of_netlist net in
    let n = List.length (Oracle.output_names o) in
    (* replies in reverse output order: compared by name *)
    let rev r = Bitpack.init n (fun i -> Bitpack.get r (n - 1 - i)) in
    Oracle.relax
      (Oracle.of_packed ~name:"box" ~inputs:(Oracle.input_names o)
         ~outputs:(List.rev (Oracle.output_names o))
         ~batch:(fun qs -> Array.map rev (Oracle.query_packed o qs))
         (fun q -> rev (Oracle.query_packed o [| q |]).(0)))
  in
  let strict () = Oracle.of_netlist comb
  and relaxed () = Oracle.of_netlist ~partial:true comb
  and moved_chip () = Oracle.of_netlist ~partial:true moved in
  (* 7 inputs: samples repeat within a batch and across estimates *)
  let s27 = fst (Combinationalize.run (Benchmarks.s27 ())) in
  let lk27 = Xor_lock.lock ~seed:5 s27 ~n_keys:4 in
  let cases =
    [
      ( "s27, repeated vectors",
        (fun () -> Oracle.of_netlist s27),
        lk27.Locked.net,
        lk27.Locked.key_inputs,
        Key.flip lk27.Locked.correct_key (List.hd lk27.Locked.key_inputs) );
      ("strict chip, one key bit flipped", strict, lk.Locked.net, keys, flipped);
      ("relaxed chip, correct key", relaxed, lk.Locked.net, keys, lk.Locked.correct_key);
      ( "pins missing on both sides",
        moved_chip,
        with_pins lk.Locked.net ~inputs:[ "cand_only" ] ~outputs:[],
        keys,
        flipped );
      ("a chip output the candidate lacks", moved_chip, comb, [], []);
      ("relaxed black box, outputs reversed", box_chip comb, lk.Locked.net, keys, flipped);
      ("a black box's output the candidate lacks", box_chip moved, comb, [], []);
    ]
  in
  let samples_t = Alcotest.(list (pair (list (pair string bool)) (list (pair string bool)))) in
  let deltas_t = Alcotest.(list (pair string int)) in
  List.iter
    (fun (name, chip, locked, key_inputs, key) ->
      let label what = name ^ ": " ^ what in
      let packed ~rng ~samples ~chip ~candidate ~drive ~fixed ~missing =
        List.map Lazy.force
          (Sampler.mismatches ~rng ~samples ~chip ~candidate ~drive ~fixed ~missing)
      in
      let run check =
        (* one chip for all three checks, so the chip's counters add up *)
        let c = chip () in
        let checks = three_checks ~chip:(fun () -> c) ~locked ~key_inputs ~key ~check in
        (c, checks)
      in
      let cn, named = run (named_mismatches ~net:locked) in
      let cp, packed_checks = run packed in
      List.iter2
        (fun (what, (n, dn)) (_, (p, dp)) ->
          Alcotest.check samples_t (label (what ^ " samples")) n p;
          Alcotest.check deltas_t (label (what ^ " metrics")) dn dp)
        named packed_checks;
      Alcotest.(check (pair int int))
        (label "chip queries, memo hits")
        (Oracle.queries cn, Oracle.memo_hits cn)
        (Oracle.queries cp, Oracle.memo_hits cp);
      (* the packed memo keys are the named ones: on the named path's
         chip the sampler asks for nothing new *)
      let q = Oracle.queries cn in
      ignore (three_checks ~chip:(fun () -> cn) ~locked ~key_inputs ~key ~check:packed);
      Alcotest.(check int) (label "no new chip query") q (Oracle.queries cn);
      (* verify_key itself *)
      let count, d =
        metered (fun () -> Sat_attack.verify_key ~seed:3 ~locked ~key_inputs ~oracle:(chip ()) key)
      in
      let nv, dnv = List.assoc "verify" named in
      Alcotest.(check int) (label "verify_key") (List.length nv) count;
      Alcotest.check deltas_t (label "verify_key metrics") dnv d;
      let counts = List.map (fun (_, (p, _)) -> List.length p) packed_checks in
      match name with
      | "strict chip, one key bit flipped" ->
        Alcotest.(check bool) (label "0 < mismatches < 64") true (count > 0 && count < 64)
      | "a chip output the candidate lacks" | "a black box's output the candidate lacks" ->
        Alcotest.(check (list int)) (label "verify, AppSAT, removal") [ 64; 0; 0 ] counts
      | "s27, repeated vectors" ->
        Alcotest.(check bool) (label "memo hits") true (Oracle.memo_hits cp > 0)
      | _ -> ())
    cases

(* [Oracle.packer] raises where the named edge raises, with the same
   message, and checks the width of what it packs. *)
let test_packer_rules () =
  let comb = fst (Combinationalize.run (Benchmarks.s27 ())) in
  let names = Oracle.input_names (Oracle.of_netlist comb) in
  let raised f = match f () with _ -> None | exception Invalid_argument m -> Some m in
  let same what names =
    let o = Oracle.of_netlist comb in
    Alcotest.(check (option string)) what
      (raised (fun () -> Oracle.query o (List.map (fun n -> (n, false)) names)))
      (raised (fun () -> Oracle.packer o names))
  in
  same "unknown name" (names @ [ "nope" ]);
  same "unassigned input" (List.tl names);
  let relaxed = Oracle.of_netlist ~partial:true comb in
  let pack = Oracle.packer relaxed ("nope" :: List.tl names) in
  let n = List.length names in
  (* values 1, 0, 1, ...: the first input is unassigned and reads false *)
  let v = Bitpack.init n (fun k -> k mod 2 = 0) in
  let defaults = Obs.Metrics.counter "oracle.partial_defaults" in
  let before = Obs.Metrics.value defaults in
  Alcotest.(check string) "relaxed: unknown ignored, unassigned reads false"
    (Bitpack.init n (fun i -> i > 0 && Bitpack.get v i))
    (pack v);
  Alcotest.(check int) "one defaulted read per packed query" 1
    (Obs.Metrics.value defaults - before);
  Alcotest.(check bool) "a wrong width raises" true
    (raised (fun () -> pack (Bitpack.init (n + 9) (fun _ -> false))) <> None)

(* ----- registry ----- *)

let test_registry_names () =
  let names = Attack.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [
      "none"; "sat"; "appsat"; "brute"; "sensitization"; "removal";
      "enhanced-removal"; "tcf2"; "scan";
    ];
  Alcotest.(check bool) "find_exn rejects unknowns" true
    (match Attack.find_exn "not-an-attack" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_registry_parity_sat_xor () =
  let comb = comb_circuit 63 in
  let lk = Xor_lock.lock ~seed:63 comb ~n_keys:6 in
  let legacy =
    Sat_attack.exec ~budget:(Budget.create ~max_iterations:4096 ())
      ~locked:lk.Locked.net ~key_inputs:lk.Locked.key_inputs
      ~oracle:(Oracle.of_netlist comb) ()
  in
  let o =
    Attack.run ~name:"sat" ~locked:lk.Locked.net
      ~key_inputs:lk.Locked.key_inputs
      ~oracle:(Oracle.of_netlist comb)
      ()
  in
  (match (legacy.Sat_attack.status, o.Attack.verdict) with
  | Sat_attack.Key_recovered _, Attack.Key_recovered k ->
    Alcotest.(check bool) "registry key functionally correct" true
      (Equiv.check ~fixed_b:k comb lk.Locked.net = Equiv.Equivalent)
  | _ -> Alcotest.fail "both paths should recover a key");
  Alcotest.(check int) "same DIP count" legacy.Sat_attack.iterations
    o.Attack.iterations;
  Alcotest.(check bool) "telemetry: queries reported" true
    (o.Attack.queries >= o.Attack.iterations && o.Attack.queries > 0);
  Alcotest.(check bool) "telemetry: conflicts carried" true
    (o.Attack.conflicts = legacy.Sat_attack.conflicts);
  Alcotest.(check bool) "telemetry: elapsed sane" true
    (o.Attack.elapsed_s >= 0.0)

let test_registry_parity_gk_no_dip () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, keys = Insertion.strip_keygens d in
  let locked_comb, _ = Combinationalize.run stripped in
  let oracle_comb, _ = Combinationalize.run net in
  let o =
    Attack.run ~name:"sat" ~locked:locked_comb ~key_inputs:keys
      ~oracle:(Oracle.of_netlist oracle_comb)
      ()
  in
  match o.Attack.verdict with
  | Attack.No_dip { mismatches; _ } ->
    Alcotest.(check int) "zero DIP iterations" 0 o.Attack.iterations;
    Alcotest.(check bool) "extracted key refuted" true (mismatches > 0);
    Alcotest.(check bool) "broken = false" false (Attack.broken o.Attack.verdict)
  | v -> Alcotest.fail ("expected no_dip, got " ^ Attack.verdict_name v)

let test_registry_deadline () =
  (* SARLock needs ~2^12 DIPs; an already-expired deadline must surface
     as a structured verdict instead of hanging or raising *)
  let comb = comb_circuit 64 in
  let lk = Sarlock.lock ~seed:64 comb ~n_keys:12 in
  let o =
    Attack.run
      ~budget:(Budget.create ~deadline_s:0.05 ())
      ~name:"sat" ~locked:lk.Locked.net ~key_inputs:lk.Locked.key_inputs
      ~oracle:(Oracle.of_netlist comb)
      ()
  in
  match o.Attack.verdict with
  | Attack.Out_of_budget Budget.Deadline -> ()
  | v -> Alcotest.fail ("expected out_of_budget_deadline, got "
                        ^ Attack.verdict_name v)

let test_registry_query_cap () =
  let comb = comb_circuit 65 in
  let lk = Xor_lock.lock ~seed:65 comb ~n_keys:10 in
  let budget = Budget.create ~max_queries:3 () in
  let o =
    Attack.run ~budget ~name:"brute" ~locked:lk.Locked.net
      ~key_inputs:lk.Locked.key_inputs
      ~oracle:(Oracle.of_netlist comb)
      ()
  in
  match o.Attack.verdict with
  | Attack.Out_of_budget Budget.Queries ->
    (* the first key's verification batch crosses the cap: the budget
       saw it, the oracle never evaluated it *)
    Alcotest.(check int) "refused batch not counted" 0 o.Attack.queries;
    Alcotest.(check bool) "budget charged at/over cap" true
      (Budget.queries budget >= 3)
  | v -> Alcotest.fail ("expected out_of_budget_queries, got "
                        ^ Attack.verdict_name v)

(* [Attack.run] binds its budget to the oracle itself: a query cap trips
   although the caller built the oracle without one (the CLI's
   [--max-queries] path).  The SAT attack stops at the DIP query that
   crosses the cap, after 3 counted ones; brute force's first key's 64
   verification samples are one batch, refused whole, so it counts none. *)
let test_registry_query_cap_binds () =
  let comb =
    Generator.generate
      {
        Generator.gen_name = "fwq";
        seed = 7;
        n_pi = 8;
        n_po = 5;
        n_ff = 8;
        n_gates = 80;
        depth = 8;
        ff_depth_bias = 0.2;
      }
    |> Combinationalize.run |> fst
  in
  List.iter
    (fun (name, n_keys, queries) ->
      let lk = Xor_lock.lock ~seed:7 comb ~n_keys in
      let o =
        Attack.run
          ~budget:(Budget.create ~max_queries:3 ())
          ~name ~locked:lk.Locked.net ~key_inputs:lk.Locked.key_inputs
          ~oracle:(Oracle.of_netlist comb) ()
      in
      Alcotest.(check string) (name ^ " verdict") "out_of_budget_queries"
        (Attack.verdict_name o.Attack.verdict);
      Alcotest.(check int) (name ^ " queries") queries o.Attack.queries)
    [ ("sat", 20, 3); ("brute", 10, 0) ]

let test_registry_none_baseline () =
  let comb = comb_circuit 66 in
  let o =
    Attack.run ~name:"none" ~locked:comb ~key_inputs:[]
      ~oracle:(Oracle.of_netlist comb)
      ()
  in
  Alcotest.(check bool) "skipped" true (o.Attack.verdict = Attack.Skipped);
  Alcotest.(check int) "no queries" 0 o.Attack.queries;
  Alcotest.(check int) "no iterations" 0 o.Attack.iterations

let test_markdown_table () =
  let t = Attack.markdown_table () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " in table") true
        (let re = "| `" ^ n ^ "`" in
         let rec find i =
           i + String.length re <= String.length t
           && (String.sub t i (String.length re) = re || find (i + 1))
         in
         find 0))
    (Attack.names ())

let suites =
  [
    ( "framework.budget",
      [
        Alcotest.test_case "iteration cap" `Quick test_budget_iterations;
        Alcotest.test_case "query cap" `Quick test_budget_queries;
        Alcotest.test_case "deadline + validation" `Quick test_budget_deadline;
      ] );
    ( "framework.oracle",
      [
        Alcotest.test_case "memo + counts" `Quick test_oracle_memo_and_counts;
        Alcotest.test_case "budget charging" `Quick test_oracle_budget_charging;
        Alcotest.test_case "memo cap + evictions" `Quick test_oracle_memo_cap;
        Alcotest.test_case "of_packed canonical keys" `Quick
          test_oracle_box_key_memo;
        Alcotest.test_case "sharded batch = scalar" `Quick
          test_oracle_sharded_batch;
        Alcotest.test_case "batch = scalar" `Quick
          test_oracle_batch_equals_scalar;
        Alcotest.test_case "query = query_batch of one" `Quick
          test_oracle_one_path;
        Alcotest.test_case "of_packed dedups a batch" `Quick
          test_oracle_box_dedup;
        Alcotest.test_case "memo under 1 KB per s38417 entry" `Quick
          test_oracle_memo_footprint;
      ] );
    ( "framework.sampler",
      [
        Alcotest.test_case "packed = named samplers" `Quick
          test_sampler_matches_named;
        Alcotest.test_case "packer follows the named edge's rules" `Quick
          test_packer_rules;
      ] );
    ( "framework.registry",
      [
        Alcotest.test_case "names" `Quick test_registry_names;
        Alcotest.test_case "parity: sat vs legacy" `Quick
          test_registry_parity_sat_xor;
        Alcotest.test_case "parity: GK no-DIP" `Quick
          test_registry_parity_gk_no_dip;
        Alcotest.test_case "deadline verdict" `Quick test_registry_deadline;
        Alcotest.test_case "query-cap verdict" `Quick test_registry_query_cap;
        Alcotest.test_case "query cap binds an unbudgeted oracle" `Quick
          test_registry_query_cap_binds;
        Alcotest.test_case "none baseline" `Quick test_registry_none_baseline;
        Alcotest.test_case "markdown table" `Quick test_markdown_table;
      ] );
  ]
