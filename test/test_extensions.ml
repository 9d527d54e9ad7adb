(* Tests for the extension modules: BDDs, Verilog I/O, time-frame
   unrolling, the no-scan sequential SAT attack, AppSAT, sensitization,
   VCD export, fault-guided insertion and the full design flow. *)

let tc = Alcotest.test_case

let qcheck ?(count = 50) name arb law = Qc.qcheck ~count name arb law

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 300)

(* DIP-iteration caps: the usual SAT-attack cap and AppSAT's *)
let sat_budget () = Budget.create ~max_iterations:4096 ()
let appsat_budget () = Budget.create ~max_iterations:512 ()

let small_comb seed =
  Generator.generate
    {
      Generator.gen_name = "ext";
      seed;
      n_pi = 5;
      n_po = 3;
      n_ff = 0;
      n_gates = 20;
      depth = 4;
      ff_depth_bias = 0.0;
    }

(* ----- Bdd ----- *)

let test_bdd_basics () =
  let m = Bdd.manager ~nvars:3 in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  let f = Bdd.bor m (Bdd.band m a b) c in
  (* truth check over all 8 rows *)
  for row = 0 to 7 do
    let bit i = row land (1 lsl i) <> 0 in
    let expected = (bit 0 && bit 1) || bit 2 in
    Alcotest.(check bool) (Printf.sprintf "row %d" row) expected
      (Bdd.eval m f bit)
  done;
  Alcotest.(check (float 0.001)) "sat count" 5.0 (Bdd.sat_count m f);
  Alcotest.(check (float 0.001)) "prob" 0.625 (Bdd.prob m f);
  (* hash-consing: same function, same node *)
  let f2 = Bdd.bor m c (Bdd.band m b a) in
  Alcotest.(check bool) "canonical" true (Bdd.equal f f2);
  Alcotest.(check bool) "tautology" true
    (Bdd.equal (Bdd.bor m a (Bdd.bnot m a)) (Bdd.btrue m));
  match Bdd.any_sat m f with
  | Some assignment ->
    let lookup i = match List.assoc_opt i assignment with Some v -> v | None -> false in
    Alcotest.(check bool) "witness satisfies" true (Bdd.eval m f lookup)
  | None -> Alcotest.fail "f is satisfiable"

let bdd_matches_eval_law seed =
  let net = small_comb seed in
  let pis = Netlist.inputs net in
  let man = Bdd.manager ~nvars:(List.length pis) in
  let index = Hashtbl.create 8 in
  List.iteri (fun i pi -> Hashtbl.replace index pi i) pis;
  let bdds = Bdd.of_netlist man net ~var_of_input:(Hashtbl.find index) in
  let rng = Random.State.make [| seed; 3 |] in
  let ok = ref true in
  for _ = 1 to 20 do
    let bits = List.map (fun pi -> (pi, Random.State.bool rng)) pis in
    let values = Netlist.eval_comb net (fun id -> List.assoc id bits) in
    List.iter
      (fun (_, d) ->
        let by_bdd =
          Bdd.eval man bdds.(d) (fun v ->
              let pi = List.nth pis v in
              List.assoc pi bits)
        in
        if by_bdd <> values.(d) then ok := false)
      (Netlist.outputs net)
  done;
  !ok

let test_bdd_exact_prob () =
  (* exact probabilities agree with brute-force enumeration *)
  let net = small_comb 77 in
  let probs = Signal_prob.exact net in
  let pis = Netlist.inputs net in
  let n = List.length pis in
  let counts = Array.make (Netlist.num_nodes net) 0 in
  for row = 0 to (1 lsl n) - 1 do
    let assoc = List.mapi (fun i pi -> (pi, row land (1 lsl i) <> 0)) pis in
    let values = Netlist.eval_comb net (fun id -> List.assoc id assoc) in
    Array.iteri (fun id v -> if v then counts.(id) <- counts.(id) + 1) values
  done;
  List.iter
    (fun (_, d) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "node %d" d)
        (float_of_int counts.(d) /. float_of_int (1 lsl n))
        probs.(d))
    (Netlist.outputs net)

(* ----- Verilog ----- *)

let verilog_roundtrip_law seed =
  let net =
    Generator.generate
      {
        Generator.gen_name = "vr";
        seed;
        n_pi = 4;
        n_po = 3;
        n_ff = 4;
        n_gates = 18;
        depth = 4;
        ff_depth_bias = 0.2;
      }
  in
  let back = Verilog.parse ~name:(Netlist.name net) (Verilog.print net) in
  let c1, _ = Combinationalize.run net in
  let c2, _ = Combinationalize.run back in
  Equiv.check c1 c2 = Equiv.Equivalent

let test_verilog_locked_roundtrip () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let back = Verilog.parse ~name:"locked" (Verilog.print d.Insertion.lnet) in
  let c1, _ = Combinationalize.run d.Insertion.lnet in
  let c2, _ = Combinationalize.run back in
  match Equiv.check c1 c2 with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail "locked round trip broke the function"

let test_verilog_primitives_and_assign () =
  let text =
    {|// comment
module t (a, b, y, z);
  input a, b;
  output y, z;
  wire w; /* block
  comment */
  nand g1 (w, a, b);
  not (y, w);
  assign z = ~a;
endmodule|}
  in
  let net = Verilog.parse ~name:"t" text in
  let a = Option.get (Netlist.find net "a") in
  let values = Netlist.eval_comb net (fun id -> id = a) in
  (* a=1 b=0: w = nand = 1, y = 0, z = ~a = 0 *)
  Alcotest.(check bool) "y" false values.(List.assoc "y" (Netlist.outputs net));
  Alcotest.(check bool) "z" false values.(List.assoc "z" (Netlist.outputs net))

let test_verilog_errors () =
  let bad text =
    match Verilog.parse ~name:"x" text with
    | _ -> Alcotest.fail "expected parse error"
    | exception Verilog.Parse_error _ -> ()
  in
  bad "module t (a); input a;";
  bad "module t (y); output y; endmodule";
  bad "module t (a, y); input a; output y; FROBX1 u (.Y(y), .A(a)); endmodule"

(* ----- Unroll / sequential SAT attack ----- *)

let test_unroll_structure () =
  let net = Benchmarks.s27 () in
  let two = Unroll.frames net ~k:2 ~share:(fun _ -> false) ~init:`Zero in
  Alcotest.(check int) "no ffs" 0 (List.length (Netlist.ffs two));
  Alcotest.(check int) "inputs 2x4" 8 (List.length (Netlist.inputs two));
  Alcotest.(check int) "outputs 2x1" 2 (List.length (Netlist.outputs two));
  let free = Unroll.frames net ~k:1 ~share:(fun _ -> false) ~init:`Free in
  Alcotest.(check int) "free init adds state inputs" 7
    (List.length (Netlist.inputs free))

let test_unroll_semantics () =
  (* the unrolled circuit computes the same output sequence as cycle-sim *)
  let net = Benchmarks.s27 () in
  let k = 3 in
  let unrolled = Unroll.frames net ~k ~share:(fun _ -> false) ~init:`Zero in
  let rng = Random.State.make [| 5 |] in
  let frames =
    List.init k (fun _ ->
        List.map
          (fun pi -> ((Netlist.node net pi).Netlist.name, Random.State.bool rng))
          (Netlist.inputs net))
  in
  let seq = Seq_attack.oracle_of_netlist net frames in
  let flat =
    List.concat
      (List.mapi
         (fun i frame ->
           List.map (fun (n, v) -> (Printf.sprintf "f%d_%s" i n, v)) frame)
         frames)
  in
  let comb_out = Oracle.query (Oracle.of_netlist unrolled) flat in
  List.iteri
    (fun i frame_outs ->
      List.iter
        (fun (po, v) ->
          Alcotest.(check bool)
            (Printf.sprintf "f%d_%s" i po)
            v
            (List.assoc (Printf.sprintf "f%d_%s" i po) comb_out))
        frame_outs)
    seq

let test_seq_attack_xor_vs_gk () =
  let net = Benchmarks.tiny () in
  let lk = Xor_lock.lock ~seed:2 net ~n_keys:5 in
  let o =
    Seq_attack.exec ~budget:(sat_budget ()) ~k:4 ~locked:lk.Locked.net
      ~key_inputs:lk.Locked.key_inputs
      ~oracle_step:(Seq_attack.oracle_of_netlist net) ()
  in
  (match o.Seq_attack.sat.Sat_attack.status with
  | Sat_attack.Key_recovered _ -> ()
  | Sat_attack.Unsat_at_first_iteration _ | Sat_attack.Budget_exhausted ->
    Alcotest.fail "sequential SAT should crack XOR locking without scan");
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, keys = Insertion.strip_keygens d in
  let o2 =
    Seq_attack.exec ~budget:(sat_budget ()) ~k:4 ~locked:stripped
      ~key_inputs:keys ~oracle_step:(Seq_attack.oracle_of_netlist net) ()
  in
  Alcotest.(check bool) "gk immune for every k" true
    (match o2.Seq_attack.sat.Sat_attack.status with
    | Sat_attack.Unsat_at_first_iteration _ -> true
    | Sat_attack.Key_recovered _ | Sat_attack.Budget_exhausted -> false)

(* ----- AppSAT ----- *)

let test_appsat_exact_on_xor () =
  let net = small_comb 21 in
  let lk = Xor_lock.lock ~seed:21 net ~n_keys:8 in
  let oracle = Oracle.of_netlist net in
  let o =
    Appsat.exec ~budget:(appsat_budget ()) ~locked:lk.Locked.net
      ~key_inputs:lk.Locked.key_inputs ~oracle ()
  in
  Alcotest.(check bool) "almost-correct key" true (o.Appsat.error_rate <= 0.01);
  Alcotest.(check int) "key verifies" 0
    (Sat_attack.verify_key ~locked:lk.Locked.net
       ~key_inputs:lk.Locked.key_inputs ~oracle o.Appsat.key)

let test_appsat_beats_compound () =
  (* SARLock + XOR compound: plain SAT needs ~2^n DIPs, AppSAT a handful.
     SARLock goes first so its comparator samples real primary inputs. *)
  let net =
    Generator.generate
      {
        Generator.gen_name = "cmpd";
        seed = 22;
        n_pi = 12;
        n_po = 5;
        n_ff = 0;
        n_gates = 40;
        depth = 5;
        ff_depth_bias = 0.0;
      }
  in
  let sar = Sarlock.lock ~seed:23 net ~n_keys:8 in
  let compound = Xor_lock.lock ~seed:22 sar.Locked.net ~n_keys:6 in
  let keys = sar.Locked.key_inputs @ compound.Locked.key_inputs in
  let oracle = Oracle.of_netlist net in
  let a =
    Appsat.exec ~budget:(appsat_budget ()) ~locked:compound.Locked.net
      ~key_inputs:keys ~oracle ()
  in
  Alcotest.(check bool) "few DIPs" true (a.Appsat.dips <= 32);
  Alcotest.(check bool) "low error" true (a.Appsat.error_rate <= 0.02);
  let p =
    Sat_attack.exec ~budget:(Budget.create ~max_iterations:300 ())
      ~locked:compound.Locked.net ~key_inputs:keys ~oracle ()
  in
  Alcotest.(check bool) "plain SAT needs ~2^8 DIPs" true
    (p.Sat_attack.iterations > 100)

(* ----- Sensitization ----- *)

let test_sensitization_output_locking () =
  (* Fig. 1(b): isolated key-gates directly on the output pins *)
  let comb = small_comb 31 in
  let locked = Netlist.copy comb in
  let rng = Random.State.make [| 31 |] in
  let keyed =
    List.mapi
      (fun i (po, d) ->
        let kn = Printf.sprintf "ok%d" i in
        let k = Netlist.add_input locked kn in
        let bit = Random.State.bool rng in
        let fn = if bit then Cell.Xnor else Cell.Xor in
        let g = Netlist.add_gate locked fn [| d; k |] in
        Netlist.set_output_driver locked po g;
        (kn, bit))
      (Netlist.outputs locked)
  in
  let oracle = Oracle.of_netlist comb in
  let o =
    Sensitization.exec ~budget:(Budget.unlimited ()) ~locked
      ~key_inputs:(List.map fst keyed) ~oracle ()
  in
  Alcotest.(check int) "all bits recovered" (List.length keyed)
    (List.length o.Sensitization.recovered);
  Alcotest.(check bool) "all correct" true
    (List.for_all (fun (k, v) -> List.assoc k keyed = v) o.Sensitization.recovered)

let test_sensitization_blind_on_gk () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, keys = Insertion.strip_keygens d in
  let scomb, _ = Combinationalize.run stripped in
  let oracle_comb, _ = Combinationalize.run net in
  let o =
    Sensitization.exec ~budget:(Budget.unlimited ()) ~locked:scomb
      ~key_inputs:keys ~oracle:(Oracle.of_netlist oracle_comb) ()
  in
  Alcotest.(check int) "nothing sensitizable" 0
    (List.length o.Sensitization.recovered);
  Alcotest.(check int) "all unresolved" (List.length keys)
    (List.length o.Sensitization.unresolved)

(* ----- Vcd ----- *)

let test_vcd_output () =
  let net = Netlist.create "v" in
  let a = Netlist.add_input net "a" in
  let g = Netlist.add_gate net ~name:"inv" Cell.Not [| a |] in
  Netlist.add_output net "y" g;
  let w = Waveform.make ~initial:Logic.F [ (500, Logic.T); (900, Logic.F) ] in
  let r =
    Timing_sim.run
      ~drive:(fun _ -> Timing_sim.Wave w)
      net
      { Timing_sim.clock_ps = 2000; cycles = 1 }
  in
  let vcd = Vcd.of_result net r ~signals:[ "a"; "inv" ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Astring_contains.contains vcd needle))
    [ "$timescale 1ps $end"; "$var wire 1 ! a $end"; "#0"; "#500"; "#900" ];
  Alcotest.check_raises "unknown signal"
    (Invalid_argument "Vcd.of_result: unknown signal nope") (fun () ->
      ignore (Vcd.of_result net r ~signals:[ "nope" ]))

(* ----- Fault_lock ----- *)

let test_fault_lock () =
  let net = small_comb 41 in
  let ranked = Fault_lock.rank_wires ~samples:32 net in
  (match ranked with
  | (_, top) :: _ -> Alcotest.(check bool) "top impact positive" true (top > 0.0)
  | [] -> Alcotest.fail "no candidates");
  let lk = Fault_lock.lock ~seed:41 ~samples:32 net ~n_keys:5 in
  Alcotest.(check string) "scheme" "fault-xor" lk.Locked.scheme;
  (* transparency with the correct key *)
  (match Equiv.check ~fixed_b:lk.Locked.correct_key net lk.Locked.net with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail "fault-lock broke the function");
  (* corruption: flipping any single key bit corrupts the outputs *)
  let corrupts =
    List.for_all
      (fun name ->
        Equiv.check ~fixed_b:(Key.flip lk.Locked.correct_key name) net
          lk.Locked.net
        <> Equiv.Equivalent)
      lk.Locked.key_inputs
  in
  Alcotest.(check bool) "every keybit corrupts (high-impact wires)" true corrupts

(* ----- Metrics ----- *)

let test_metrics_ber () =
  let net = small_comb 61 in
  let lk = Xor_lock.lock ~seed:61 net ~n_keys:5 in
  (* the correct key has zero error *)
  Alcotest.(check (float 1e-9)) "correct key BER 0" 0.0
    (Metrics.bit_error_rate ~reference:net lk lk.Locked.correct_key);
  let p = Metrics.wrong_key_profile ~reference:net lk in
  Alcotest.(check bool) "wrong keys corrupt" true (p.Metrics.mean_ber > 0.01);
  Alcotest.(check bool) "bounds ordered" true
    (p.Metrics.min_ber <= p.Metrics.mean_ber
    && p.Metrics.mean_ber <= p.Metrics.max_ber)

let test_metrics_sarlock_low_corruptibility () =
  (* the Sec. I criticism, quantified: SARLock's wrong keys corrupt a
     ~2^-n fraction of outputs while XOR locking corrupts heavily *)
  let net =
    Generator.generate
      { Generator.gen_name = "mb"; seed = 62; n_pi = 12; n_po = 6; n_ff = 0;
        n_gates = 40; depth = 5; ff_depth_bias = 0.0 }
  in
  let sar = Metrics.wrong_key_profile ~reference:net
      (Sarlock.lock ~seed:62 net ~n_keys:8) in
  let xor = Metrics.wrong_key_profile ~reference:net
      (Xor_lock.lock ~seed:62 net ~n_keys:8) in
  Alcotest.(check bool) "sarlock barely corrupts" true
    (sar.Metrics.mean_ber < 0.02);
  Alcotest.(check bool) "xor corrupts an order of magnitude more" true
    (xor.Metrics.mean_ber > 10.0 *. sar.Metrics.mean_ber)

(* ----- Design_flow ----- *)

let test_design_flow () =
  let net = Benchmarks.tiny () in
  let design, report = Design_flow.run ~seed:3 ~clock_margin:4.5 net ~n_gks:2 in
  Alcotest.(check int) "two GKs placed" 2
    (List.length design.Insertion.placements);
  Alcotest.(check int) "one attempt" 1 report.Design_flow.attempts;
  Alcotest.(check (list string)) "nothing dropped" []
    report.Design_flow.dropped_ffs;
  Alcotest.(check bool) "false violations reported" true
    (report.Design_flow.false_violations >= 1);
  Alcotest.(check bool) "overhead positive" true
    (report.Design_flow.cell_overhead_pct > 0.0);
  Alcotest.(check bool) "locked placement grew" true
    (report.Design_flow.locked_place.Placer.hpwl_um
    > report.Design_flow.baseline_place.Placer.hpwl_um);
  (* the report renders *)
  let s = Format.asprintf "%a" Design_flow.pp_report report in
  Alcotest.(check bool) "report mentions overhead" true
    (Astring_contains.contains s "overhead")

let suites =
  [
    ( "ext.bdd",
      [
        tc "basics" `Quick test_bdd_basics;
        tc "exact signal probabilities" `Quick test_bdd_exact_prob;
        qcheck ~count:30 "matches direct evaluation" seed_arb
          bdd_matches_eval_law;
      ] );
    ( "ext.verilog",
      [
        tc "locked round trip" `Quick test_verilog_locked_roundtrip;
        tc "primitives + assign" `Quick test_verilog_primitives_and_assign;
        tc "errors" `Quick test_verilog_errors;
        qcheck ~count:25 "round trip preserves function" seed_arb
          verilog_roundtrip_law;
      ] );
    ( "ext.unroll",
      [
        tc "structure" `Quick test_unroll_structure;
        tc "matches cycle-sim" `Quick test_unroll_semantics;
        tc "seq SAT: XOR falls, GK immune" `Quick test_seq_attack_xor_vs_gk;
      ] );
    ( "ext.appsat",
      [
        tc "exact on XOR" `Quick test_appsat_exact_on_xor;
        tc "beats SARLock compound" `Slow test_appsat_beats_compound;
      ] );
    ( "ext.sensitization",
      [
        tc "cracks output locking" `Quick test_sensitization_output_locking;
        tc "blind on GK" `Quick test_sensitization_blind_on_gk;
      ] );
    ("ext.vcd", [ tc "format" `Quick test_vcd_output ]);
    ("ext.fault_lock", [ tc "ranking + locking" `Quick test_fault_lock ]);
    ( "ext.metrics",
      [
        tc "bit-error rate" `Quick test_metrics_ber;
        tc "SARLock low corruptibility" `Quick
          test_metrics_sarlock_low_corruptibility;
      ] );
    ("ext.design_flow", [ tc "end to end" `Quick test_design_flow ]);
  ]
