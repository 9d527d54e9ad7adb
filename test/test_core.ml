(* Tests for the umbrella-library helpers: stimuli, report rendering and
   the waveform renderer. *)

let tc = Alcotest.test_case

let qcheck ?(count = 50) name arb law = Qc.qcheck ~count name arb law

(* ----- Stimuli ----- *)

let test_stimuli_edge_aligned () =
  let net = Benchmarks.s27 () in
  let clock_ps = 2000 and cycles = 8 in
  let pi = List.hd (Netlist.inputs net) in
  match Stimuli.edge_aligned ~seed:5 net ~clock_ps ~cycles pi with
  | Timing_sim.Const _ -> Alcotest.fail "expected a waveform"
  | Timing_sim.Wave w ->
    (* transitions only at k*clock + clk2q *)
    List.iter
      (fun (t, _) ->
        Alcotest.(check int) "aligned to launch instants" Cell_lib.dff_clk2q_ps
          (t mod clock_ps))
      (Waveform.transitions w);
    (* determinism *)
    (match Stimuli.edge_aligned ~seed:5 net ~clock_ps ~cycles pi with
    | Timing_sim.Wave w2 -> Alcotest.(check bool) "same seed, same wave" true (Waveform.equal w w2)
    | Timing_sim.Const _ -> Alcotest.fail "expected wave");
    (* different seeds eventually differ across the input set *)
    let differs =
      List.exists
        (fun p ->
          match
            ( Stimuli.edge_aligned ~seed:5 net ~clock_ps ~cycles p,
              Stimuli.edge_aligned ~seed:6 net ~clock_ps ~cycles p )
          with
          | Timing_sim.Wave a, Timing_sim.Wave b -> not (Waveform.equal a b)
          | _, _ -> false)
        (Netlist.inputs net)
    in
    Alcotest.(check bool) "seeds differ" true differs

let test_stimuli_po_agreement () =
  let empty = Timing_sim.run (Netlist.create "t") { Timing_sim.clock_ps = 1000; cycles = 1 } in
  let mk samples = { empty with Timing_sim.po_samples = [ ("y", Array.of_list samples) ] } in
  let a = mk [ Logic.F; Logic.T; Logic.T; Logic.F ] in
  let b = mk [ Logic.T; Logic.T; Logic.F; Logic.F ] in
  Alcotest.(check (pair int int)) "skip 0" (2, 4)
    (Stimuli.po_agreement ~skip:0 a b);
  Alcotest.(check (pair int int)) "skip 1" (1, 3)
    (Stimuli.po_agreement ~skip:1 a b);
  Alcotest.(check (pair int int)) "self" (0, 4)
    (Stimuli.po_agreement ~skip:0 a a)

let test_stimuli_cycle_inputs () =
  let net = Benchmarks.s27 () in
  let pi = List.hd (Netlist.inputs net) in
  Alcotest.(check bool) "deterministic" true
    (Stimuli.cycle_inputs ~seed:1 net 3 pi = Stimuli.cycle_inputs ~seed:1 net 3 pi)

(* ----- Report rendering ----- *)

let test_report_table1_renders () =
  let row =
    {
      Experiments.t1_bench = "sX";
      t1_cells = 100;
      t1_ffs = 10;
      t1_avail = 7;
      t1_cov_pct = 70.0;
      t1_avail4 = 3;
      t1_clock_ps = 4000;
      t1_paper_avail = 8;
      t1_paper_avail4 = 4;
    }
  in
  let s = Report.table1 [ row ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Astring_contains.contains s needle))
    [ "sX"; "70.00"; "Ava. FF [4]"; "Avg." ]

let test_report_table2_dashes () =
  let row =
    {
      Experiments.t2_bench = "sY";
      t2_gk4 = Some { Experiments.oh_cell_pct = 10.0; oh_area_pct = 12.5 };
      t2_gk8 = None;
      t2_gk16 = None;
      t2_hybrid = None;
    }
  in
  let s = Report.table2 [ row ] in
  Alcotest.(check bool) "value" true (Astring_contains.contains s "12.50");
  Alcotest.(check bool) "dash for infeasible" true
    (Astring_contains.contains s " - ")

let test_report_comparison () =
  let row =
    {
      Experiments.cp_scheme = "test-scheme";
      cp_keys = 4;
      cp_outcome = "did things";
      cp_iterations = 9;
      cp_decrypted = false;
    }
  in
  let s = Report.comparison [ row ] in
  Alcotest.(check bool) "scheme" true (Astring_contains.contains s "test-scheme");
  Alcotest.(check bool) "NO marker" true (Astring_contains.contains s "NO")

(* ----- Waveform rendering ----- *)

let test_waveform_render () =
  let w =
    Waveform.make ~initial:Logic.F
      [ (200, Logic.T); (500, Logic.F); (700, Logic.X) ]
  in
  let s = Waveform.render ~t0:0 ~t1:900 ~step:100 [ ("sig", w) ] in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | wave :: _ruler :: _ ->
    Alcotest.(check bool) "label" true (String.length wave > 4 && String.sub wave 0 3 = "sig");
    Alcotest.(check bool) "rising edge" true (String.contains wave '/');
    Alcotest.(check bool) "falling edge" true (String.contains wave '\\');
    Alcotest.(check bool) "unknown" true (String.contains wave 'x')
  | _ -> Alcotest.fail "render shape");
  Alcotest.(check bool) "ruler has origin" true (Astring_contains.contains s "|0")

let render_total_width_law (a, b) =
  let t0 = 0 and t1 = 100 + (abs a mod 2000) in
  let step = 10 + (abs b mod 90) in
  let w = Waveform.constant Logic.T in
  let s = Waveform.render ~t0 ~t1 ~step [ ("x", w) ] in
  match String.split_on_char '\n' s with
  | wave :: _ -> String.length wave = 3 + ((t1 - t0) / step) + 1
  | [] -> false

(* ----- Design_flow report formatting ----- *)

let test_flow_on_benchmark () =
  (* the flow also works on a real-sized benchmark *)
  let spec = Option.get (Benchmarks.find_spec "s15850") in
  let net = Benchmarks.load spec in
  let design, report =
    Design_flow.run ~seed:9 ~clock_margin:spec.Benchmarks.clk_margin net
      ~n_gks:4
  in
  Alcotest.(check int) "4 GKs" 4 (List.length design.Insertion.placements);
  Alcotest.(check bool) "overhead sane" true
    (report.Design_flow.cell_overhead_pct > 1.0
    && report.Design_flow.cell_overhead_pct < 60.0);
  Alcotest.(check int) "timing entries per FF"
    (List.length (Netlist.ffs design.Insertion.lnet))
    (List.length report.Design_flow.timing_entries)

let suites =
  [
    ( "core.stimuli",
      [
        tc "edge aligned" `Quick test_stimuli_edge_aligned;
        tc "po agreement" `Quick test_stimuli_po_agreement;
        tc "cycle inputs" `Quick test_stimuli_cycle_inputs;
      ] );
    ( "core.report",
      [
        tc "table1" `Quick test_report_table1_renders;
        tc "table2 dashes" `Quick test_report_table2_dashes;
        tc "comparison" `Quick test_report_comparison;
      ] );
    ( "core.render",
      [
        tc "waveform ascii" `Quick test_waveform_render;
        qcheck "render width" QCheck.(pair int int) render_total_width_law;
      ] );
    ("core.design_flow", [ tc "benchmark scale" `Slow test_flow_on_benchmark ]);
  ]
