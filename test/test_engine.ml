(* The bit-parallel evaluation engine and the memoized graph analyses:
   word-lane agreement with the scalar semantics on random circuits, and
   cache invalidation across every mutation class. *)

let tc = Alcotest.test_case

let qcheck ?(count = 100) name arb law = Qc.qcheck ~count name arb law

let seed_arb =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "circuit seed %d" seed)
    QCheck.Gen.(int_bound 1000)

let generated_circuit seed =
  Generator.generate
    {
      Generator.gen_name = Printf.sprintf "e%d" seed;
      seed;
      n_pi = 4 + (seed mod 5);
      n_po = 2 + (seed mod 3);
      n_ff = seed mod 7;
      n_gates = 20 + (seed mod 40);
      depth = 4 + (seed mod 6);
      ff_depth_bias = 0.4;
    }

(* A random netlist exercising node kinds the generator avoids: LUTs of
   arity 1-3, MUXes, constants and wide gates. *)
let adversarial_circuit seed =
  let rng = Random.State.make [| seed; 0xADE |] in
  let net = Netlist.create (Printf.sprintf "adv%d" seed) in
  let pool = ref [] in
  for i = 0 to 3 + Random.State.int rng 4 do
    pool := Netlist.add_input net (Printf.sprintf "i%d" i) :: !pool
  done;
  pool := Netlist.add_const net true :: Netlist.add_const net false :: !pool;
  let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
  for _ = 1 to 25 + Random.State.int rng 25 do
    let id =
      match Random.State.int rng 6 with
      | 0 ->
        let k = 1 + Random.State.int rng 3 in
        let truth =
          Array.init (1 lsl k) (fun _ -> Random.State.bool rng)
        in
        Netlist.add_lut net ~truth (Array.init k (fun _ -> pick ()))
      | 1 -> Netlist.add_gate net Cell.Mux [| pick (); pick (); pick () |]
      | 2 -> Netlist.add_gate net Cell.Not [| pick () |]
      | 3 ->
        let fn = List.nth [ Cell.And; Cell.Or; Cell.Nand; Cell.Nor ]
            (Random.State.int rng 4) in
        let k = 2 + Random.State.int rng 3 in
        Netlist.add_gate net fn (Array.init k (fun _ -> pick ()))
      | 4 ->
        let fn = if Random.State.bool rng then Cell.Xor else Cell.Xnor in
        Netlist.add_gate net fn [| pick (); pick () |]
      | _ -> Netlist.add_gate net Cell.Buf [| pick () |]
    in
    pool := id :: !pool
  done;
  Netlist.add_output net "y" (pick ());
  Netlist.validate net;
  net

(* Reference semantics, independent of the engine: per-call DFS plus
   Cell.eval, exactly the seed implementation of eval_comb. *)
let reference_eval net assignment =
  let n = Netlist.num_nodes net in
  let state = Array.make n 0 in
  let order = ref [] in
  let rec visit id =
    let nd = Netlist.node net id in
    if Netlist.is_comb nd then
      match state.(id) with
      | 2 -> ()
      | 1 -> failwith "cycle"
      | _ ->
        state.(id) <- 1;
        Array.iter visit nd.Netlist.fanins;
        state.(id) <- 2;
        order := id :: !order
  in
  for id = 0 to n - 1 do
    visit id
  done;
  let values = Array.make n false in
  for id = 0 to n - 1 do
    match (Netlist.node net id).Netlist.kind with
    | Netlist.Input | Netlist.Ff -> values.(id) <- assignment id
    | Netlist.Const b -> values.(id) <- b
    | Netlist.Gate _ | Netlist.Lut _ | Netlist.Dead -> ()
  done;
  List.iter
    (fun id ->
      let nd = Netlist.node net id in
      let ins = Array.map (fun f -> values.(f)) nd.Netlist.fanins in
      match nd.Netlist.kind with
      | Netlist.Gate fn -> values.(id) <- Cell.eval fn ins
      | Netlist.Lut truth ->
        let idx = ref 0 in
        Array.iteri (fun i b -> if b then idx := !idx lor (1 lsl i)) ins;
        values.(id) <- truth.(!idx)
      | _ -> assert false)
    (List.rev !order);
  values

(* [fill] for a block whose source [i] takes [word id] in word [wi]. *)
let fill_word eng ~n_words ~wi word buf =
  Array.iteri
    (fun i id -> buf.((i * n_words) + wi) <- word id)
    (Netlist.Engine.sources eng)

(* The lanes of a one-word block agree bit-for-bit with both eval_comb
   and the reference evaluator. *)
let engine_agrees_law mk seed =
  let net = mk seed in
  let n = Netlist.num_nodes net in
  let rng = Random.State.make [| seed; 0x1A |] in
  let w = Netlist.Engine.word_bits in
  let lanes = 1 + Random.State.int rng w in
  let vectors =
    Array.init lanes (fun _ -> Array.init n (fun _ -> Random.State.bool rng))
  in
  let words =
    Array.init n (fun id ->
        let acc = ref 0 in
        Array.iteri (fun l vec -> if vec.(id) then acc := !acc lor (1 lsl l)) vectors;
        !acc)
  in
  let eng = Netlist.Engine.get net in
  let slot_of = Netlist.Engine.slot_of_id eng in
  let blk =
    Netlist.Engine.eval_block eng ~n_words:1
      ~fill:(fill_word eng ~n_words:1 ~wi:0 (Array.get words))
  in
  Array.to_list vectors
  |> List.mapi (fun l vec -> (l, vec))
  |> List.for_all (fun (l, vec) ->
         let scalar = Netlist.eval_comb net (Array.get vec) in
         let reference = reference_eval net (Array.get vec) in
         let ok = ref true in
         for id = 0 to n - 1 do
           if scalar.(id) <> reference.(id) then ok := false;
           let s = slot_of.(id) in
           if s >= 0 && blk.(s) land (1 lsl l) <> 0 <> scalar.(id) then
             ok := false
         done;
         !ok)

let generated_agrees_law = engine_agrees_law generated_circuit
let adversarial_agrees_law = engine_agrees_law adversarial_circuit

(* Multi-word blocks agree with a one-word block per word and with
   eval_comb + reference on sampled lanes, including partial final
   words. *)
let eval_block_agrees_law mk seed =
  let net = mk seed in
  let rng = Random.State.make [| seed; 0xB10C |] in
  let eng = Netlist.Engine.get net in
  let w = Netlist.Engine.word_bits in
  let srcs = Netlist.Engine.sources eng in
  let n_src = Array.length srcs in
  let slot_of = Netlist.Engine.slot_of_id eng in
  let src_idx = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.replace src_idx id i) srcs;
  let n_words = 1 + Random.State.int rng 3 in
  let lanes = 1 + Random.State.int rng (n_words * w) in
  let stim = Array.make (max 1 (n_src * n_words)) 0 in
  for i = 0 to (n_src * n_words) - 1 do
    let wi = i mod n_words in
    let live = max 0 (min w (lanes - (wi * w))) in
    let mask = if live = w then -1 else (1 lsl live) - 1 in
    stim.(i) <- Netlist.Engine.random_word rng land mask
  done;
  let blk =
    Array.copy
      (Netlist.Engine.eval_block eng ~n_words ~fill:(fun buf ->
           Array.blit stim 0 buf 0 (n_src * n_words)))
  in
  let ok = ref true in
  for wi = 0 to n_words - 1 do
    let word =
      Netlist.Engine.eval_block eng ~n_words:1
        ~fill:
          (fill_word eng ~n_words:1 ~wi:0 (fun id ->
               stim.((Hashtbl.find src_idx id * n_words) + wi)))
    in
    Array.iter
      (fun s ->
        if s >= 0 && word.(s) <> blk.((s * n_words) + wi) then ok := false)
      slot_of
  done;
  let check_lane l =
    let assignment id =
      let si = Hashtbl.find src_idx id in
      (stim.((si * n_words) + (l / w)) lsr (l mod w)) land 1 = 1
    in
    let scalar = Netlist.eval_comb net assignment in
    let reference = reference_eval net assignment in
    Array.iteri
      (fun id s ->
        if s >= 0 then begin
          let bv = (blk.((s * n_words) + (l / w)) lsr (l mod w)) land 1 = 1 in
          if bv <> scalar.(id) || bv <> reference.(id) then ok := false
        end)
      slot_of
  in
  check_lane 0;
  check_lane (lanes - 1);
  check_lane (Random.State.int rng lanes);
  !ok

let generated_block_law = eval_block_agrees_law generated_circuit
let adversarial_block_law = eval_block_agrees_law adversarial_circuit

(* Every fused kernel, exhaustively: a one-gate netlist per gate function
   and legal arity up to 6 (the 2-, 3- and 4-input kernels and the wide
   fallback), MUX, and LUTs of 1-4 inputs, with every input combination
   as one lane.  At three words the combinations sit in word 2 and the
   other words carry random stimulus, so a wrong stride shows. *)
let check_one_gate ~what net ~expect =
  let eng = Netlist.Engine.get net in
  let w = Netlist.Engine.word_bits in
  let k = Array.length (Netlist.Engine.sources eng) in
  let y = (Netlist.Engine.slot_of_id eng).(snd (List.hd (Netlist.outputs net))) in
  let rng = Random.State.make [| k; 0x6A7E |] in
  List.iter
    (fun (n_words, wi) ->
      let combos = 1 lsl k in
      let base = ref 0 in
      while !base < combos do
        let lanes = min w (combos - !base) in
        let blk =
          Netlist.Engine.eval_block eng ~n_words ~fill:(fun buf ->
              for i = 0 to k - 1 do
                for wj = 0 to n_words - 1 do
                  buf.((i * n_words) + wj) <-
                    (if wj <> wi then Netlist.Engine.random_word rng
                     else begin
                       let word = ref 0 in
                       for l = 0 to lanes - 1 do
                         if (!base + l) land (1 lsl i) <> 0 then
                           word := !word lor (1 lsl l)
                       done;
                       !word
                     end)
                done
              done)
        in
        for l = 0 to lanes - 1 do
          let c = !base + l in
          let ins = Array.init k (fun i -> c land (1 lsl i) <> 0) in
          Alcotest.(check bool)
            (Printf.sprintf "%s, %d words, inputs %d" what n_words c)
            (expect ins)
            ((blk.((y * n_words) + wi) lsr l) land 1 = 1)
        done;
        base := !base + lanes
      done)
    [ (1, 0); (3, 2) ]

let one_gate_net k add =
  let net = Netlist.create "one_gate" in
  let ins =
    Array.init k (fun i -> Netlist.add_input net (Printf.sprintf "i%d" i))
  in
  Netlist.add_output net "y" (add net ins);
  net

let test_kernels_exhaustive () =
  List.iter
    (fun fn ->
      for k = 1 to 6 do
        if Cell.arity_ok fn k then
          check_one_gate
            ~what:(Printf.sprintf "%s/%d" (Cell.fn_name fn) k)
            (one_gate_net k (fun net ins -> Netlist.add_gate net fn ins))
            ~expect:(Cell.eval fn)
      done)
    [ Cell.Not; Cell.Buf; Cell.And; Cell.Or; Cell.Nand; Cell.Nor; Cell.Xor;
      Cell.Xnor; Cell.Mux ];
  let rng = Random.State.make [| 0x10B |] in
  for k = 1 to 4 do
    (* every table at 1-2 inputs, eight random ones at 3-4 *)
    let tables =
      if k <= 2 then
        List.init (1 lsl (1 lsl k)) (fun t ->
            Array.init (1 lsl k) (fun row -> t land (1 lsl row) <> 0))
      else
        List.init 8 (fun _ ->
            Array.init (1 lsl k) (fun _ -> Random.State.bool rng))
    in
    List.iter
      (fun truth ->
        let index ins =
          Array.fold_right (fun b acc -> (acc lsl 1) lor Bool.to_int b) ins 0
        in
        check_one_gate
          ~what:(Printf.sprintf "lut%d" k)
          (one_gate_net k (fun net ins -> Netlist.add_lut net ~truth ins))
          ~expect:(fun ins -> truth.(index ins)))
      tables
  done

(* The compiled order: sources take slots 0..n_srcs-1 in declaration
   order, and every fanin's slot is lower than its gate's slot. *)
let compiled_order_law mk seed =
  let net = mk seed in
  let eng = Netlist.Engine.get net in
  let slot_of = Netlist.Engine.slot_of_id eng in
  let declared =
    List.filter
      (fun id ->
        match (Netlist.node net id).Netlist.kind with
        | Netlist.Input | Netlist.Ff -> true
        | _ -> false)
      (List.init (Netlist.num_nodes net) Fun.id)
  in
  Array.to_list (Netlist.Engine.sources eng) = declared
  && List.for_all2 (fun i id -> slot_of.(id) = i)
       (List.mapi (fun i _ -> i) declared)
       declared
  && List.for_all
       (fun id ->
         let nd = Netlist.node net id in
         (not (Netlist.is_comb nd))
         || Array.for_all (fun f -> slot_of.(f) < slot_of.(id)) nd.Netlist.fanins)
       (List.init (Netlist.num_nodes net) Fun.id)

let test_slot_map () =
  let net = Benchmarks.s27 () in
  let eng = Netlist.Engine.get net in
  let srcs = Netlist.Engine.sources eng in
  let slot_of = Netlist.Engine.slot_of_id eng in
  Array.iteri
    (fun i id -> Alcotest.(check int) "source i occupies slot i" i slot_of.(id))
    srcs;
  let n_slots = Netlist.Engine.n_slots eng in
  let seen = Array.make n_slots false in
  Array.iter
    (fun s ->
      if s >= 0 then begin
        Alcotest.(check bool) "slot in range" true (s < n_slots);
        Alcotest.(check bool) "slot unique" false seen.(s);
        seen.(s) <- true
      end)
    slot_of;
  Array.iteri
    (fun s used ->
      Alcotest.(check bool) (Printf.sprintf "slot %d populated" s) true used)
    seen;
  List.iter
    (fun name ->
      let spec = Option.get (Benchmarks.find_spec name) in
      Alcotest.(check bool)
        (name ^ ": sources first, fanins in lower slots")
        true
        (compiled_order_law (fun _ -> Benchmarks.load spec) 0))
    [ "s1238"; "s5378" ]

let test_scratch_reuse () =
  let net = Benchmarks.s27 () in
  let eng = Netlist.Engine.get net in
  let sc = Netlist.Engine.create_scratch eng in
  let one word =
    Netlist.Engine.eval_block ~scratch:sc eng ~n_words:1
      ~fill:(fill_word eng ~n_words:1 ~wi:0 word)
  in
  let a1 = Array.copy (one (fun id -> if id mod 2 = 0 then -1 else 0)) in
  ignore (one (fun _ -> -1));
  let a2 = one (fun id -> if id mod 2 = 0 then -1 else 0) in
  Alcotest.(check bool) "same results across scratch reuse" true (a1 = a2);
  Alcotest.(check bool) "result aliases the scratch buffer" true
    (a2 == one (fun _ -> 0));
  (* a scratch is tied to its engine *)
  let eng2 = Netlist.Engine.get (Benchmarks.s27 ()) in
  (match
     Netlist.Engine.eval_block ~scratch:sc eng2 ~n_words:1 ~fill:ignore
   with
  | _ -> Alcotest.fail "expected Invalid_argument for foreign scratch"
  | exception Invalid_argument _ -> ());
  (* one- and two-word blocks share the scratch and agree *)
  let w1 = Array.copy (one (fun _ -> -1)) in
  let n_src = Array.length (Netlist.Engine.sources eng) in
  let blk =
    Netlist.Engine.eval_block ~scratch:sc eng ~n_words:2 ~fill:(fun buf ->
        Array.fill buf 0 (n_src * 2) (-1))
  in
  for s = 0 to Netlist.Engine.n_slots eng - 1 do
    Alcotest.(check int) "block word 0 = one-word block" w1.(s) blk.(s * 2);
    Alcotest.(check int) "block word 1 = one-word block" w1.(s) blk.((s * 2) + 1)
  done;
  Alcotest.(check bool) "one word again after two" true
    (Array.sub (one (fun _ -> -1)) 0 (Netlist.Engine.n_slots eng)
    = Array.sub w1 0 (Netlist.Engine.n_slots eng))

let popcount_naive w =
  let c = ref 0 in
  for i = 0 to Sys.int_size - 1 do
    if (w lsr i) land 1 = 1 then incr c
  done;
  !c

let popcount_swar_law seed =
  let rng = Random.State.make [| seed; 0xC0DE |] in
  List.for_all
    (fun w -> Netlist.Engine.popcount w = popcount_naive w)
    (0 :: -1 :: 1 :: max_int :: min_int
    :: List.init 48 (fun i ->
           let r = Int64.to_int (Random.State.bits64 rng) in
           (* mix sparse, dense and shifted patterns *)
           match i mod 3 with
           | 0 -> r
           | 1 -> r land (r lsl 1)
           | _ -> r lor (r lsr 7)))

let test_engine_memoized () =
  let net = Benchmarks.s27 () in
  let e1 = Netlist.Engine.get net in
  let e2 = Netlist.Engine.get net in
  Alcotest.(check bool) "same engine while unmutated" true (e1 == e2);
  let topo1 = Netlist.comb_topo_order net in
  let topo2 = Netlist.comb_topo_order net in
  Alcotest.(check bool) "same topo list while unmutated" true (topo1 == topo2);
  let fan1 = Netlist.fanout_table net in
  let fan2 = Netlist.fanout_table net in
  Alcotest.(check bool) "same fanout table while unmutated" true (fan1 == fan2);
  let lv1 = Netlist.levels net in
  let lv2 = Netlist.levels net in
  Alcotest.(check bool) "same levels while unmutated" true (lv1 == lv2)

let test_cache_invalidation_add_rewire () =
  let net = Netlist.create "inv" in
  let a = Netlist.add_input net "a" in
  let b = Netlist.add_input net "b" in
  let g = Netlist.add_gate net Cell.And [| a; b |] in
  Netlist.add_output net "y" g;
  let gen0 = Netlist.generation net in
  let v0 = Netlist.eval_comb net (fun _ -> true) in
  Alcotest.(check bool) "and(1,1)" true v0.(g);
  let topo0 = Netlist.comb_topo_order net in
  (* add: topo and engine must grow *)
  let inv = Netlist.add_gate net Cell.Not [| g |] in
  Alcotest.(check bool) "generation bumped by add" true
    (Netlist.generation net > gen0);
  let topo1 = Netlist.comb_topo_order net in
  Alcotest.(check int) "topo grew" (List.length topo0 + 1) (List.length topo1);
  let v1 = Netlist.eval_comb net (fun _ -> true) in
  Alcotest.(check bool) "new gate evaluated" false v1.(inv);
  (* rewire: same ids, different function *)
  Netlist.set_output_driver net "y" inv;
  let c0 = Netlist.add_const net false in
  Netlist.set_fanin net ~node_id:g ~pin:1 ~driver:c0;
  let v2 = Netlist.eval_comb net (fun _ -> true) in
  Alcotest.(check bool) "and(1,const0) = 0 after rewire" false v2.(g);
  Alcotest.(check bool) "not propagates after rewire" true v2.(inv);
  (* levels follow the rewire *)
  Alcotest.(check int) "inv level" 2 (Netlist.levels net).(inv);
  (* fanout reflects the rewire *)
  let fans = Netlist.fanout_table net in
  Alcotest.(check bool) "const0 feeds g" true (List.mem (g, 1) fans.(c0))

let test_cache_invalidation_widen_kill_compact () =
  let net = Netlist.create "wkc" in
  let a = Netlist.add_input net "a" in
  let b = Netlist.add_input net "b" in
  let c = Netlist.add_input net "c" in
  let g = Netlist.add_gate net Cell.And [| a; b |] in
  let dead = Netlist.add_gate net Cell.Not [| a |] in
  Netlist.add_output net "y" g;
  let v0 = Netlist.eval_comb net (fun id -> id <> c) in
  Alcotest.(check bool) "before widen" true v0.(g);
  Netlist.widen_gate net ~node_id:g ~extra_driver:c;
  let v1 = Netlist.eval_comb net (fun id -> id <> c) in
  Alcotest.(check bool) "widened gate sees new fanin" false v1.(g);
  Netlist.kill net dead;
  let v2 = Netlist.eval_comb net (fun id -> id <> c) in
  Alcotest.(check bool) "dead node reads false" false v2.(dead);
  Alcotest.(check int) "topo omits the dead node" 1
    (List.length (Netlist.comb_topo_order net));
  let net', remap = Netlist.compact net in
  let v3 = Netlist.eval_comb net' (fun id -> id <> remap.(c)) in
  Alcotest.(check bool) "compacted netlist evaluates" false v3.(remap.(g))

let test_run_batch_matches_run () =
  let net = Benchmarks.s27 () in
  let cycles = 8 in
  let lanes = 5 in
  let rng = Random.State.make [| 0x5B |] in
  let stim =
    Array.init cycles (fun _ ->
        Array.init (Netlist.num_nodes net) (fun _ ->
            Random.State.int rng (1 lsl lanes)))
  in
  let batch =
    Cycle_sim.run_batch net ~cycles ~stimulus:(fun cy id -> stim.(cy).(id))
  in
  for l = 0 to lanes - 1 do
    let scalar =
      Cycle_sim.run net ~cycles ~stimulus:(fun cy id ->
          stim.(cy).(id) land (1 lsl l) <> 0)
    in
    Array.iteri
      (fun cy pos ->
        List.iter
          (fun (po, v) ->
            let word = List.assoc po batch.(cy) in
            Alcotest.(check bool)
              (Printf.sprintf "cycle %d lane %d %s" cy l po)
              v
              (word land (1 lsl l) <> 0))
          pos)
      scalar
  done

let test_comb_outputs_batch () =
  let net = Netlist.create "cb" in
  let a = Netlist.add_input net "a" in
  let b = Netlist.add_input net "b" in
  let x = Netlist.add_gate net Cell.Xor [| a; b |] in
  Netlist.add_output net "x" x;
  (* lanes: (a,b) = 00 01 10 11 *)
  let words = [ (a, 0b1100); (b, 0b1010) ] in
  let outs = Cycle_sim.comb_outputs_batch net ~inputs:(fun id -> List.assoc id words) in
  Alcotest.(check int) "xor truth column" 0b0110 (List.assoc "x" outs land 0b1111)

let test_dense_ff_state () =
  let net = Benchmarks.s27 () in
  let sim = Cycle_sim.create ~init:(fun _ -> true) net in
  let st = Cycle_sim.state sim in
  Alcotest.(check int) "three ffs" 3 (List.length st);
  List.iter (fun (_, v) -> Alcotest.(check bool) "init honoured" true v) st;
  ignore (Cycle_sim.step sim ~inputs:(fun _ -> false));
  let ids = List.map fst (Cycle_sim.state sim) in
  Alcotest.(check (list int)) "ids stable across steps" (List.map fst st) ids

let test_popcount_random_word () =
  Alcotest.(check int) "popcount 0" 0 (Netlist.Engine.popcount 0);
  Alcotest.(check int) "popcount -1 = word width" Sys.int_size
    (Netlist.Engine.popcount (-1));
  Alcotest.(check int) "popcount 0b1011" 3 (Netlist.Engine.popcount 0b1011);
  let rng = Random.State.make [| 1 |] in
  let w = Netlist.Engine.random_word rng in
  Alcotest.(check bool) "random word within word_bits" true
    (Netlist.Engine.word_bits = Sys.int_size || w lsr Netlist.Engine.word_bits = 0)

let parallel_map_law seed =
  let xs = List.init (seed mod 50) (fun i -> i + seed) in
  Parallel.map ~domains:4 (fun x -> x * x) xs = List.map (fun x -> x * x) xs

let test_parallel_map_exception () =
  match Parallel.map ~domains:3 (fun x -> if x = 7 then failwith "boom" else x)
          [ 1; 7; 9 ]
  with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure m -> Alcotest.(check string) "first error" "boom" m

let suites =
  [
    ( "engine.eval",
      [
        qcheck ~count:60 "generated circuits: lanes = scalar = reference"
          seed_arb generated_agrees_law;
        qcheck ~count:60 "LUT/MUX/const circuits: lanes = scalar = reference"
          seed_arb adversarial_agrees_law;
        qcheck ~count:40 "generated circuits: block = words = scalar = reference"
          seed_arb generated_block_law;
        qcheck ~count:40
          "LUT/MUX/const circuits: block = words = scalar = reference" seed_arb
          adversarial_block_law;
        tc "every fused kernel, exhaustively" `Quick test_kernels_exhaustive;
        qcheck ~count:40 "compiled order: sources first, fanins lower"
          seed_arb (fun seed ->
            compiled_order_law generated_circuit seed
            && compiled_order_law adversarial_circuit seed);
        tc "slot map: dense, unique, sources first" `Quick test_slot_map;
        tc "scratch reuse + ownership" `Quick test_scratch_reuse;
        tc "popcount + random_word" `Quick test_popcount_random_word;
        qcheck ~count:50 "SWAR popcount = naive bit loop" seed_arb
          popcount_swar_law;
      ] );
    ( "engine.caching",
      [
        tc "analyses memoized between mutations" `Quick test_engine_memoized;
        tc "invalidated by add/rewire" `Quick test_cache_invalidation_add_rewire;
        tc "invalidated by widen/kill/compact" `Quick
          test_cache_invalidation_widen_kill_compact;
      ] );
    ( "engine.cycle_sim",
      [
        tc "run_batch lanes = scalar run" `Quick test_run_batch_matches_run;
        tc "comb_outputs_batch" `Quick test_comb_outputs_batch;
        tc "dense ff state" `Quick test_dense_ff_state;
      ] );
    ( "engine.parallel",
      [
        qcheck ~count:20 "map = List.map" seed_arb parallel_map_law;
        tc "map re-raises" `Quick test_parallel_map_exception;
      ] );
  ]
