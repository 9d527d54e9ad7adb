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

let test_oracle_fn_key_memo () =
  let calls = ref 0 in
  let fn q =
    incr calls;
    [ ("y", List.for_all snd q) ]
  in
  let o = Oracle.of_fn fn in
  let q1 = [ ("a", true); ("b", false); ("c", true) ] in
  let q2 = [ ("c", true); ("a", true); ("b", false) ] in
  let r1 = Oracle.query o q1 in
  let r2 = Oracle.query o q2 in
  Alcotest.(check bool) "same response" true (r1 = r2);
  Alcotest.(check int) "permutation is a memo hit" 1 !calls;
  Alcotest.(check int) "hit counted" 1 (Oracle.memo_hits o);
  ignore (Oracle.query o [ ("a", false); ("b", false); ("c", true) ]);
  Alcotest.(check int) "distinct assignment evaluated" 2 !calls;
  (* same bit pattern under a different name set must not share an entry *)
  ignore (Oracle.query o [ ("x", false); ("y", false); ("z", true) ]);
  Alcotest.(check int) "distinct name set evaluated" 3 !calls;
  Alcotest.(check int) "real evals counted" 3 (Oracle.queries o)

(* [query q] runs [query_batch [q]]'s pipeline: over a sequence with
   repeats and a two-entry memo, an oracle asked one way and its twin
   asked the other give the same reply and the same counters after every
   step, for each backend with the memo on and off.  A function oracle
   answers [query] with [fn] and [query_batch] with its [batch]. *)
let test_oracle_one_path () =
  let comb = comb_circuit 67 in
  let names = Oracle.input_names (Oracle.of_netlist comb) in
  let vec i = List.mapi (fun j n -> (n, (i lsr j) land 1 = 1)) names in
  (* the relaxed oracle's queries leave the last source unnamed *)
  let short i = List.filteri (fun j _ -> j < List.length names - 1) (vec i) in
  let fn_calls = ref 0 and batch_calls = ref 0 in
  let fn q =
    incr fn_calls;
    reference_query comb q
  in
  let batch qs =
    incr batch_calls;
    List.map (reference_query comb) qs
  in
  let cap memo = if memo then Some 2 else None in
  let cases =
    [
      ( "netlist",
        vec,
        fun memo -> Oracle.of_netlist ~memo ?memo_cap:(cap memo) comb );
      ( "partial netlist",
        short,
        fun memo ->
          Oracle.of_netlist ~partial:true ~memo ?memo_cap:(cap memo) comb );
      ("of_fn", vec, fun memo -> Oracle.of_fn ~memo ?memo_cap:(cap memo) fn);
      ( "of_fn ~batch",
        vec,
        fun memo -> Oracle.of_fn ~memo ?memo_cap:(cap memo) ~batch fn );
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
              if name = "of_fn ~batch" then begin
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

(* A batch-less function oracle deduplicates within a batch: the
   repeated query is neither evaluated again nor counted as a memo hit,
   and both misses are charged before [fn] runs. *)
let test_oracle_fn_batchless_dedup () =
  let budget = Budget.create () in
  let charged_at_calls = ref [] in
  let fn q =
    charged_at_calls := Budget.queries budget :: !charged_at_calls;
    [ ("y", List.exists snd q) ]
  in
  let o = Oracle.with_budget budget (Oracle.of_fn fn) in
  let q0 = [ ("a", true); ("b", false) ] in
  let q1 = [ ("a", false); ("b", false) ] in
  let rs = Oracle.query_batch o [ q0; q0; q1 ] in
  Alcotest.(check (list (list (pair string bool))))
    "replies in request order"
    [ [ ("y", true) ]; [ ("y", true) ]; [ ("y", false) ] ]
    rs;
  Alcotest.(check int) "one fn call per distinct query" 2
    (List.length !charged_at_calls);
  Alcotest.(check int) "distinct queries charged" 2 (Oracle.queries o);
  Alcotest.(check int) "no memo hit" 0 (Oracle.memo_hits o);
  Alcotest.(check (list int)) "both charged before the first fn call"
    [ 2; 2 ] !charged_at_calls

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
        Alcotest.test_case "fn-backend canonical keys" `Quick
          test_oracle_fn_key_memo;
        Alcotest.test_case "sharded batch = scalar" `Quick
          test_oracle_sharded_batch;
        Alcotest.test_case "batch = scalar" `Quick
          test_oracle_batch_equals_scalar;
        Alcotest.test_case "query = query_batch of one" `Quick
          test_oracle_one_path;
        Alcotest.test_case "batch-less of_fn dedups a batch" `Quick
          test_oracle_fn_batchless_dedup;
        Alcotest.test_case "memo under 1 KB per s38417 entry" `Quick
          test_oracle_memo_footprint;
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
