(* End-to-end tests: the experiment drivers that regenerate the paper's
   tables and figures, and a full lock → verify → attack pipeline. *)

let tc = Alcotest.test_case

(* ----- Table I ----- *)

let test_table1_s5378 () =
  (* fully deterministic: pin the calibrated values so regressions in the
     generator, STA or feasibility rules are caught *)
  let spec = Option.get (Benchmarks.find_spec "s5378") in
  let row = Experiments.table1_row spec in
  Alcotest.(check int) "cells" 775 row.Experiments.t1_cells;
  Alcotest.(check int) "ffs" 163 row.Experiments.t1_ffs;
  Alcotest.(check bool) "coverage in the paper's ballpark" true
    (abs_float (row.Experiments.t1_cov_pct -. 63.80) < 15.0);
  Alcotest.(check bool) "avail4 <= avail" true
    (row.Experiments.t1_avail4 <= row.Experiments.t1_avail)

let test_table1_full () =
  let rows = Experiments.table1 () in
  Alcotest.(check int) "seven benchmarks" 7 (List.length rows);
  let avg =
    List.fold_left (fun a r -> a +. r.Experiments.t1_cov_pct) 0.0 rows /. 7.0
  in
  (* the paper's average coverage is 64.07% *)
  Alcotest.(check bool)
    (Printf.sprintf "average coverage %.2f ~ 64.07" avg)
    true
    (abs_float (avg -. 64.07) < 8.0);
  (* rendering works and mentions every benchmark *)
  let rendered = Report.table1 rows in
  List.iter
    (fun spec ->
      Alcotest.(check bool) spec.Benchmarks.bname true
        (Astring_contains.contains rendered spec.Benchmarks.bname))
    Benchmarks.specs

(* ----- Table II ----- *)

let test_table2_s5378 () =
  let spec = Option.get (Benchmarks.find_spec "s5378") in
  let row = Experiments.table2_row spec in
  let cell4 = (Option.get row.Experiments.t2_gk4).Experiments.oh_cell_pct in
  let cell8 = (Option.get row.Experiments.t2_gk8).Experiments.oh_cell_pct in
  let cell16 = (Option.get row.Experiments.t2_gk16).Experiments.oh_cell_pct in
  let hybrid = (Option.get row.Experiments.t2_hybrid).Experiments.oh_cell_pct in
  (* the paper's shape: overhead grows with GK count, roughly doubling,
     and the hybrid at 32 key-inputs is much cheaper than 16 GKs *)
  Alcotest.(check bool) "monotone" true (cell4 < cell8 && cell8 < cell16);
  Alcotest.(check bool) "roughly doubles" true
    (cell16 /. cell8 > 1.5 && cell16 /. cell8 < 2.5);
  Alcotest.(check bool) "hybrid beats 16 GKs" true (hybrid < cell16);
  Alcotest.(check bool) "4 GKs near the paper's 10%" true
    (cell4 > 5.0 && cell4 < 20.0)

(* ----- SAT-attack table ----- *)

let test_sat_attack_row () =
  let spec = Option.get (Benchmarks.find_spec "s15850") in
  let row = Experiments.sat_attack_on_gk spec ~n_gks:8 in
  Alcotest.(check bool) "unsat at first" true row.Experiments.at_unsat_at_first;
  Alcotest.(check int) "no DIPs" 0 row.Experiments.at_iterations;
  (* after KEYGEN stripping each GK exposes a single key pin *)
  Alcotest.(check int) "8 key inputs" 8 row.Experiments.at_keys;
  Alcotest.(check bool) "recovered key wrong on chip" true
    (row.Experiments.at_key_mismatches > 0)

(* ----- Figures ----- *)

let test_fig4_content () =
  let s = Experiments.fig4 () in
  Alcotest.(check bool) "mentions glitch lengths" true
    (Astring_contains.contains s "3090 ps"
    && Astring_contains.contains s "2090 ps")

let test_fig7_content () =
  let s = Experiments.fig7 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Astring_contains.contains s needle))
    [ "on-level"; "glitch-early"; "glitch-late"; "glitchless"; "violations=0" ]

let test_fig9_content () =
  let s = Experiments.fig9 () in
  Alcotest.(check bool) "eq5 window" true
    (Astring_contains.contains s "(6000, 7000)");
  Alcotest.(check bool) "eq6 window" true
    (Astring_contains.contains s "(1000, 4000)")

let test_fig6_content () =
  let s = Experiments.fig6 () in
  Alcotest.(check bool) "four rows" true
    (Astring_contains.contains s "(0,0) const0"
    && Astring_contains.contains s "(1,1) const1")

(* ----- Ablations ----- *)

let test_ablation_glitch_monotone () =
  let rows = Experiments.ablation_glitch_length ~lengths:[ 1000; 2000 ] () in
  match rows with
  | [ r1000; r2000 ] ->
    List.iter2
      (fun (b1, a1) (b2, a2) ->
        Alcotest.(check string) "same bench" b1 b2;
        Alcotest.(check bool)
          (Printf.sprintf "%s: longer glitch, fewer sites" b1)
          true (a2 <= a1))
      r1000.Experiments.ag_avail r2000.Experiments.ag_avail
  | _ -> Alcotest.fail "two rows expected"

let test_ablation_profile_order () =
  let rows = Experiments.ablation_delay_profile () in
  match rows with
  | [ bufs; std; custom ] ->
    Alcotest.(check bool) "buffers-only worst" true
      (bufs.Experiments.ap_cell_oh_pct > std.Experiments.ap_cell_oh_pct);
    Alcotest.(check bool) "custom best (cells)" true
      (custom.Experiments.ap_cell_oh_pct < std.Experiments.ap_cell_oh_pct);
    Alcotest.(check bool) "delay-cell counts ordered" true
      (bufs.Experiments.ap_delay_cells > std.Experiments.ap_delay_cells
      && std.Experiments.ap_delay_cells > custom.Experiments.ap_delay_cells)
  | _ -> Alcotest.fail "three profiles expected"

(* ----- Corruptibility ----- *)

let test_corruptibility () =
  let rows = Experiments.corruptibility ~bench:"s5378" ~n_gks:8 () in
  let find label =
    List.find
      (fun r ->
        String.length r.Experiments.co_key >= String.length label
        && String.sub r.Experiments.co_key 0 (String.length label) = label)
      rows
  in
  let correct = find "correct key" in
  Alcotest.(check (float 0.001)) "correct key clean" 0.0
    correct.Experiments.co_po_mismatch_pct;
  Alcotest.(check int) "correct key no violations" 0
    correct.Experiments.co_violations;
  let const0 = find "all-zeros" in
  Alcotest.(check bool) "constants corrupt" true
    (const0.Experiments.co_po_mismatch_pct > 0.0);
  let mistimed = find "opposite branch" in
  Alcotest.(check bool) "mistimed transitions violate timing" true
    (mistimed.Experiments.co_violations > 0)

(* ----- Full pipeline on one design ----- *)

let test_full_pipeline () =
  let net = Benchmarks.tiny () in
  let clock_ps = Sta.clock_for net ~margin:4.5 in
  (* 1. lock *)
  let d = Insertion.lock ~seed:3 net ~clock_ps ~n_gks:3 in
  Netlist.validate d.Insertion.lnet;
  (* 2. verify with the correct key on the timing simulator *)
  let cycles = 12 in
  let cfg = { Timing_sim.clock_ps; cycles } in
  let stim n = Stimuli.edge_aligned ~seed:8 n ~clock_ps ~cycles in
  let base =
    Timing_sim.run ~drive:(stim net) ~captures_from:(fun _ -> 1) net cfg
  in
  let ok =
    Timing_sim.run
      ~drive:
        (Insertion.timing_drive ~other:(stim d.Insertion.lnet) d
           d.Insertion.correct_key)
      ~captures_from:(Insertion.capture_policy d) d.Insertion.lnet cfg
  in
  let mism, total = Stimuli.po_agreement ~skip:0 base ok in
  Alcotest.(check int) "correct key transparent" 0 mism;
  Alcotest.(check bool) "compared something" true (total > 0);
  (* 3. P&R sanity *)
  let pl = Placer.place d.Insertion.lnet in
  Alcotest.(check bool) "placeable" true (pl.Placer.hpwl_um > 0.0);
  (* 4. the attacker's pipeline fails *)
  let stripped, keys = Insertion.strip_keygens d in
  let locked_comb, _ = Combinationalize.run stripped in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Oracle.of_netlist oracle_comb in
  (match
     (Sat_attack.exec ~budget:(Budget.create ~max_iterations:4096 ())
        ~locked:locked_comb ~key_inputs:keys ~oracle ())
       .Sat_attack.status
   with
  | Sat_attack.Unsat_at_first_iteration _ -> ()
  | Sat_attack.Key_recovered _ | Sat_attack.Budget_exhausted ->
    Alcotest.fail "SAT attack should be starved");
  (* 5. bench I/O round trip of the locked design *)
  let txt = Bench_format.print d.Insertion.lnet in
  let back = Bench_format.parse ~name:"locked" txt in
  (* the printer adds one alias buffer per output whose name is not a
     node name; everything else must round-trip *)
  let cells = (Stats.of_netlist d.Insertion.lnet).Stats.cells in
  let cells' = (Stats.of_netlist back).Stats.cells in
  Alcotest.(check bool) "locked round trip" true
    (cells' >= cells
    && cells' <= cells + List.length (Netlist.outputs d.Insertion.lnet))

(* ----- Paper artifacts, byte for byte ----- *)

(* Each artifact is pinned by the MD5 of the text the CLI prints or
   writes, so any change to a simulated event, a figure or a table shows
   here. *)
let check_md5 name want text =
  Alcotest.(check string) name want (Digest.to_hex (Digest.string text))

(* `gklock figs` *)
let test_artifact_figs () =
  check_md5 "figs" "7908f8b1f143be2d3fcfffd1556047e2"
    (String.concat "\n"
       [ Experiments.fig4 (); Experiments.fig6 (); Experiments.fig7 (); Experiments.fig9 () ])

(* `gklock tables --table=corruption` *)
let test_artifact_corruption () =
  check_md5 "corruption table" "73f8b0c89688521192d663a0e13bab71"
    (Report.corruptibility (Experiments.corruptibility ()))

(* The VCD of `gklock sim BENCH --cycles N --vcd FILE`, with the CLI's
   default clock and stimulus. *)
let sim_vcd bname cycles =
  let net = Benchmarks.load (Option.get (Benchmarks.find_spec bname)) in
  let clock_ps = Sta.clock_for net ~margin:1.3 in
  let drive = Stimuli.edge_aligned ~seed:1 net ~clock_ps ~cycles in
  Vcd.of_result net (Timing_sim.run ~drive net { Timing_sim.clock_ps; cycles }) ~signals:[]

let test_artifact_vcd_s5378 () =
  check_md5 "s5378 vcd" "e2aef57461e41b2841a65c56357d1e02" (sim_vcd "s5378" 24)

let test_artifact_vcd_s38417 () =
  check_md5 "s38417 vcd" "15429f2836c0d9997bd204e41c9a5d13" (sim_vcd "s38417" 8)

let suites =
  [
    ( "integration.tables",
      [
        tc "table1 s5378" `Slow test_table1_s5378;
        tc "table1 full" `Slow test_table1_full;
        tc "table2 s5378 shape" `Slow test_table2_s5378;
        tc "sat-attack row" `Slow test_sat_attack_row;
      ] );
    ( "integration.figures",
      [
        tc "fig4" `Quick test_fig4_content;
        tc "fig6" `Quick test_fig6_content;
        tc "fig7" `Quick test_fig7_content;
        tc "fig9" `Quick test_fig9_content;
      ] );
    ( "integration.ablations",
      [
        tc "glitch length monotone" `Slow test_ablation_glitch_monotone;
        tc "profile ordering" `Slow test_ablation_profile_order;
      ] );
    ("integration.corruptibility", [ tc "key classes" `Slow test_corruptibility ]);
    ("integration.pipeline", [ tc "lock/verify/attack" `Quick test_full_pipeline ]);
    ( "integration.artifacts",
      [
        tc "gklock figs" `Quick test_artifact_figs;
        tc "corruption table" `Quick test_artifact_corruption;
        tc "sim s5378 VCD" `Quick test_artifact_vcd_s5378;
        tc "sim s38417 VCD" `Quick test_artifact_vcd_s38417;
      ] );
  ]
