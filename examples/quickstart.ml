(* Quickstart: lock a small sequential design with two glitch key-gates,
   then watch the correct transitional key reproduce the original
   behaviour while wrong keys corrupt it.

   Run with: dune exec examples/quickstart.exe
   A wrong outcome exits 1. *)

let () =
  (* A ~40-cell sequential circuit. *)
  let net = Benchmarks.tiny () in
  Format.printf "original: %a@." Stats.pp (Stats.of_netlist net);

  (* Pick a clock with room for a 1 ns glitch, then lock two flip-flops. *)
  let clock_ps = Sta.clock_for net ~margin:4.5 in
  let design = Insertion.lock ~seed:3 net ~clock_ps ~n_gks:2 in
  let cell_oh, area_oh = Insertion.overhead design in
  Format.printf "locked: 2 GKs, 4 key-inputs, clock %d ps, overhead %.1f%% cells / %.1f%% area@."
    clock_ps cell_oh area_oh;
  Format.printf "correct key: %s@." (Key.to_string design.Insertion.correct_key);

  (* Timing-accurate simulation: drive the same input pattern through the
     original and the locked design. *)
  let cycles = 16 in
  let cfg = { Timing_sim.clock_ps; cycles } in
  let stim n = Stimuli.edge_aligned ~seed:7 n ~clock_ps ~cycles in
  (* Both designs hold their reset state through cycle 0 (synchronous
     reset); the locked design's KEYGEN toggles are free-running, so its
     first data capture is already glitch-covered. *)
  let baseline =
    Timing_sim.run ~drive:(stim net) ~captures_from:(fun _ -> 1) net cfg
  in
  let run key =
    Timing_sim.run
      ~drive:(Insertion.timing_drive ~other:(stim design.Insertion.lnet) design key)
      ~captures_from:(Insertion.capture_policy design) design.Insertion.lnet cfg
  in
  let show label key =
    let r = run key in
    let mism, total = Stimuli.po_agreement ~skip:1 baseline r in
    Format.printf "%-22s -> %d/%d corrupted output samples, %d timing violations@."
      label mism total
      (List.length r.Timing_sim.violations)
  in
  show "correct key" design.Insertion.correct_key;
  show "random wrong key" (Key.random_wrong ~seed:1 design.Insertion.correct_key);
  show "all-constant key"
    (List.map (fun (n, _) -> (n, false)) design.Insertion.correct_key);

  (* The attacker's stable-logic view: with any constant key the GK is just
     an inverter, so a SAT solver finds no distinguishing input at all. *)
  let stripped, gk_keys = Insertion.strip_keygens design in
  let locked_comb, _ = Combinationalize.run stripped in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Oracle.of_netlist oracle_comb in
  let budget = Budget.create ~max_iterations:4096 () in
  (match
     (Sat_attack.exec ~budget ~locked:locked_comb ~key_inputs:gk_keys
        ~oracle ())
       .Sat_attack.status
   with
  | Sat_attack.Unsat_at_first_iteration _ ->
    Format.printf "SAT attack: unsatisfiable at the first DIP search — it learned nothing@."
  | Sat_attack.Key_recovered _ ->
    Format.printf "SAT attack unexpectedly succeeded?!@.";
    exit 1
  | Sat_attack.Budget_exhausted -> Format.printf "SAT attack ran out of budget@.");
  Format.printf "done.@."
