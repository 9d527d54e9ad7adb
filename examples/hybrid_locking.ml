(* Hybrid locking (Sec. VI, Table II last column): 8 GKs protect against
   SAT attack while 16 conventional XOR key-gates protect the GK-encrypted
   paths against scan/BIST observation — at lower overhead than 16 GKs.

   Run with: dune exec examples/hybrid_locking.exe *)

let () =
  let spec = Option.get (Benchmarks.find_spec "s13207") in
  let net = Benchmarks.load spec in
  let clock_ps = Sta.clock_for net ~margin:spec.Benchmarks.clk_margin in

  let pure16 = Insertion.lock ~seed:4 net ~clock_ps ~n_gks:16 in
  let c16, a16 = Insertion.overhead pure16 in
  Format.printf "16 GKs (32 key-inputs):        cell +%.2f%%  area +%.2f%%@." c16 a16;

  let hybrid = Hybrid.lock ~seed:4 net ~clock_ps ~n_gks:8 ~n_xors:16 in
  let ch, ah = Hybrid.overhead hybrid in
  Format.printf "8 GKs + 16 XORs (32 key-inputs): cell +%.2f%%  area +%.2f%%@." ch ah;
  Format.printf "overhead saved by the hybrid:   cell %.2f points, area %.2f points@."
    (c16 -. ch) (a16 -. ah);

  (* The hybrid's combinational view still starves the SAT attack: the XOR
     half alone would fall, but each locked path also runs through a GK. *)
  let stripped, gk_keys = Insertion.strip_keygens hybrid.Hybrid.design in
  let locked_comb, _ = Combinationalize.run stripped in
  let all_keys = gk_keys @ hybrid.Hybrid.xor_key_inputs in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Oracle.of_netlist oracle_comb in
  let o =
    Sat_attack.exec ~budget:(Budget.create ~max_iterations:4096 ())
      ~locked:locked_comb ~key_inputs:all_keys ~oracle ()
  in
  (match o.Sat_attack.status with
  | Sat_attack.Unsat_at_first_iteration k | Sat_attack.Key_recovered k ->
    let label =
      if o.Sat_attack.iterations = 0 then "unsatisfiable at first DIP"
      else Printf.sprintf "stopped after %d DIPs" o.Sat_attack.iterations
    in
    Format.printf
      "@.SAT attack on the hybrid (%d key-inputs): %s;@.\
       the surviving key still disagrees with the chip on %d/64 samples@."
      (List.length all_keys) label
      (Sat_attack.verify_key ~locked:locked_comb ~key_inputs:all_keys ~oracle k)
  | Sat_attack.Budget_exhausted ->
    Format.printf "SAT attack exhausted its budget (%d DIPs)@."
      o.Sat_attack.iterations);

  (* Correct-key check on the timing-true simulator. *)
  let cycles = 10 in
  let cfg = { Timing_sim.clock_ps; cycles } in
  let stim n = Stimuli.edge_aligned ~seed:2 n ~clock_ps ~cycles in
  let baseline =
    Timing_sim.run ~drive:(stim net) ~captures_from:(fun _ -> 1) net cfg
  in
  let lnet = hybrid.Hybrid.design.Insertion.lnet in
  let locked_run =
    Timing_sim.run
      ~drive:
        (Insertion.timing_drive ~other:(stim lnet) hybrid.Hybrid.design
           hybrid.Hybrid.all_correct_key)
      ~captures_from:(Insertion.capture_policy hybrid.Hybrid.design)
      lnet cfg
  in
  let mism, total = Stimuli.po_agreement ~skip:1 baseline locked_run in
  Format.printf "correct combined key: %d/%d corrupted samples, %d violations@."
    mism total
    (List.length locked_run.Timing_sim.violations)
