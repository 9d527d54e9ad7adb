(* Tests for delay composition, the cleanup synthesis passes and the toy
   placer. *)

let tc = Alcotest.test_case

let qcheck ?(count = 100) name arb law = Qc.qcheck ~count name arb law

(* ----- Delay_synth ----- *)

let compose_accuracy_law profile target =
  let target = 50 + (abs target mod 5000) in
  let cells, achieved = Delay_synth.compose profile ~target_ps:target in
  let sum = List.fold_left (fun a c -> a + c.Cell.delay_ps) 0 cells in
  sum = achieved && abs (achieved - target) <= Delay_synth.tolerance_ps profile

let test_compose_profiles () =
  let std_cells, std = Delay_synth.compose `Standard ~target_ps:3000 in
  let buf_cells, buf = Delay_synth.compose `Buffers_only ~target_ps:3000 in
  let cus_cells, cus = Delay_synth.compose `Custom ~target_ps:3000 in
  Alcotest.(check bool) "std fewer cells than buffers-only" true
    (List.length std_cells < List.length buf_cells);
  Alcotest.(check int) "custom single cell" 1 (List.length cus_cells);
  Alcotest.(check int) "custom exact" 3000 cus;
  Alcotest.(check bool) "tolerances respected" true
    (abs (std - 3000) <= Delay_synth.tolerance_ps `Standard
    && abs (buf - 3000) <= Delay_synth.tolerance_ps `Buffers_only);
  (* polarity: all composed cells are buffers *)
  Alcotest.(check bool) "non-inverting" true
    (List.for_all (fun c -> c.Cell.fn = Cell.Buf) std_cells)

let test_compose_zero () =
  let cells, achieved = Delay_synth.compose `Standard ~target_ps:0 in
  Alcotest.(check int) "no cells" 0 (List.length cells);
  Alcotest.(check int) "zero" 0 achieved

let test_chain_builds_delay () =
  let net = Netlist.create "c" in
  let a = Netlist.add_input net "a" in
  let last, achieved =
    Delay_synth.chain net `Standard ~from_:a ~target_ps:2100 ~prefix:"d"
  in
  Netlist.add_output net "y" last;
  Netlist.validate net;
  (* the chain's STA arrival equals the achieved delay *)
  let sta = Sta.analyze net ~clock_ps:10000 in
  Alcotest.(check int) "arrival = achieved" achieved (Sta.arrival sta last).Sta.amax;
  Alcotest.(check bool) "close to target" true (abs (achieved - 2100) <= 35)

let test_chain_zero_is_identity () =
  let net = Netlist.create "c" in
  let a = Netlist.add_input net "a" in
  let last, achieved = Delay_synth.chain net `Standard ~from_:a ~target_ps:0 ~prefix:"d" in
  Alcotest.(check int) "same node" a last;
  Alcotest.(check int) "zero" 0 achieved

(* ----- Synth ----- *)

let test_synth_const_folding () =
  let net = Netlist.create "s" in
  let a = Netlist.add_input net "a" in
  let c0 = Netlist.add_const net false in
  let c1 = Netlist.add_const net true in
  let g1 = Netlist.add_gate net Cell.And [| a; c0 |] in (* -> 0 *)
  let g2 = Netlist.add_gate net Cell.Or [| a; c0 |] in (* -> a *)
  let g3 = Netlist.add_gate net Cell.Mux [| c1; a; g1 |] in (* -> g1 -> 0 *)
  Netlist.add_output net "y1" g1;
  Netlist.add_output net "y2" g2;
  Netlist.add_output net "y3" g3;
  let opt, report = Synth.optimize net in
  Alcotest.(check bool) "folded some" true (report.Synth.const_folded >= 1);
  (* function preserved *)
  (match Equiv.check net opt with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail "optimization changed the function");
  (* y1 now driven by a constant *)
  let y1 = List.assoc "y1" (Netlist.outputs opt) in
  Alcotest.(check bool) "y1 const" true
    ((Netlist.node opt y1).Netlist.kind = Netlist.Const false)

let test_synth_buffer_collapse_and_sweep () =
  let net = Netlist.create "s" in
  let a = Netlist.add_input net "a" in
  let b1 = Netlist.add_gate net Cell.Buf [| a |] in
  let b2 = Netlist.add_gate net Cell.Buf [| b1 |] in
  let dead = Netlist.add_gate net Cell.Not [| a |] in
  ignore dead;
  Netlist.add_output net "y" b2;
  let opt, report = Synth.optimize net in
  Alcotest.(check int) "buffers collapsed" 2 report.Synth.buffers_collapsed;
  Alcotest.(check bool) "dead removed" true (report.Synth.dead_removed >= 1);
  Alcotest.(check int) "only input remains" 0 (Stats.of_netlist opt).Stats.gates

let test_synth_preserve () =
  let net = Netlist.create "s" in
  let a = Netlist.add_input net "a" in
  let b1 = Netlist.add_gate net ~name:"keep_me" Cell.Buf [| a |] in
  Netlist.add_output net "y" b1;
  let opt, _ =
    Synth.optimize ~preserve:(fun id -> (Netlist.node net id).Netlist.name = "keep_me") net
  in
  Alcotest.(check bool) "preserved" true (Netlist.find opt "keep_me" <> None)

let synth_preserves_function_law seed =
  let net =
    Generator.generate
      {
        Generator.gen_name = "sf";
        seed;
        n_pi = 5;
        n_po = 4;
        n_ff = 0;
        n_gates = 25;
        depth = 5;
        ff_depth_bias = 0.0;
      }
  in
  (* tie one input to a constant to give the folder something to do *)
  let net = Netlist.copy net in
  let pi = List.hd (Netlist.inputs net) in
  let c = Netlist.add_const net (seed mod 2 = 0) in
  Netlist.replace_uses net [ (pi, c) ];
  let opt, _ = Synth.optimize net in
  Equiv.check net opt = Equiv.Equivalent

(* ----- Placer ----- *)

let test_placer_basic () =
  let net = Benchmarks.tiny () in
  let r1 = Placer.place ~seed:3 net in
  let r2 = Placer.place ~seed:3 net in
  Alcotest.(check bool) "deterministic" true (r1 = r2);
  Alcotest.(check bool) "positive wirelength" true (r1.Placer.hpwl_um > 0.0);
  Alcotest.(check bool) "grid covers cells" true
    (r1.Placer.grid_w * r1.Placer.grid_h >= (Stats.of_netlist net).Stats.cells)

let test_placer_growth () =
  (* a locked netlist needs more area and wire *)
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let base = Placer.place ~seed:3 net in
  let locked = Placer.place ~seed:3 d.Insertion.lnet in
  Alcotest.(check bool) "locked larger" true
    (locked.Placer.hpwl_um > base.Placer.hpwl_um)

let suites =
  [
    ( "flow.delay_synth",
      [
        tc "profiles" `Quick test_compose_profiles;
        tc "zero target" `Quick test_compose_zero;
        tc "chain delay = STA" `Quick test_chain_builds_delay;
        tc "zero chain" `Quick test_chain_zero_is_identity;
        qcheck "standard accuracy" QCheck.int (compose_accuracy_law `Standard);
        qcheck "buffers-only accuracy" QCheck.int
          (compose_accuracy_law `Buffers_only);
        qcheck "custom accuracy" QCheck.int (compose_accuracy_law `Custom);
      ] );
    ( "flow.synth",
      [
        tc "const folding" `Quick test_synth_const_folding;
        tc "collapse + sweep" `Quick test_synth_buffer_collapse_and_sweep;
        tc "preserve" `Quick test_synth_preserve;
        qcheck ~count:40 "optimization preserves function"
          (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 500))
          synth_preserves_function_law;
      ] );
    ( "flow.placer",
      [
        tc "basic" `Quick test_placer_basic;
        tc "locked grows" `Quick test_placer_growth;
      ] );
  ]
