(* Attack resilience: the same design locked with conventional XOR
   key-gates and with glitch key-gates, attacked with the same SAT attack.

   XOR locking falls in a handful of DIP iterations; GK locking leaves the
   miter unsatisfiable from the start, and the attacker's "recovered" key
   produces a netlist the real (timing-true) chip contradicts.

   Run with: dune exec examples/attack_resilience.exe
   A wrong outcome exits 1. *)

let fail msg =
  Format.printf "%s@." msg;
  exit 1

let () =
  let net = Benchmarks.by_name "s5378" in
  let spec = Option.get (Benchmarks.find_spec "s5378") in
  let clock_ps = Sta.clock_for net ~margin:spec.Benchmarks.clk_margin in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Sat_attack.oracle_of_netlist oracle_comb in

  (* --- conventional XOR/XNOR locking, 16 key bits --- *)
  let comb, _ = Combinationalize.run net in
  let xor = Xor_lock.lock ~seed:5 comb ~n_keys:16 in
  Format.printf "[xor] 16 key-gates inserted@.";
  let o =
    Sat_attack.run ~locked:xor.Locked.net ~key_inputs:xor.Locked.key_inputs
      ~oracle ()
  in
  (match o.Sat_attack.status with
  | Sat_attack.Key_recovered k ->
    Format.printf "[xor] key recovered after %d DIPs (%d CDCL conflicts)@."
      o.Sat_attack.iterations o.Sat_attack.conflicts;
    (match Equiv.check ~fixed_b:k comb xor.Locked.net with
    | Equiv.Equivalent ->
      Format.printf "[xor] decrypted netlist proven equivalent to the original@."
    | Equiv.Different _ -> fail "[xor] equivalence check FAILED?!")
  | Sat_attack.Unsat_at_first_iteration _ | Sat_attack.Budget_exhausted ->
    fail "[xor] attack failed?!");

  (* --- glitch key-gate locking, 8 GKs = 16 key bits --- *)
  let design = Insertion.lock ~seed:5 net ~clock_ps ~n_gks:8 in
  Format.printf "@.[gk] 8 GKs inserted (16 key-inputs via KEYGENs)@.";
  let stripped, gk_keys = Insertion.strip_keygens design in
  let locked_comb, _ = Combinationalize.run stripped in
  let o = Sat_attack.run ~locked:locked_comb ~key_inputs:gk_keys ~oracle () in
  (match o.Sat_attack.status with
  | Sat_attack.Unsat_at_first_iteration k ->
    Format.printf
      "[gk] miter unsatisfiable at the first DIP search: no input pattern can@.\
      \     distinguish any two keys in the stable-logic model@.";
    let mismatches =
      Sat_attack.verify_key ~locked:locked_comb ~key_inputs:gk_keys ~oracle k
    in
    Format.printf
      "[gk] the arbitrary key the attacker is left with disagrees with the@.\
      \     functioning chip on %d of 64 sampled input vectors@."
      mismatches
  | Sat_attack.Key_recovered _ -> fail "[gk] unexpectedly recovered a key?!"
  | Sat_attack.Budget_exhausted -> fail "[gk] budget exhausted?!");

  (* --- and the timing-true ground truth --- *)
  let cycles = 12 in
  let cfg = { Timing_sim.clock_ps; cycles } in
  let stim n = Stimuli.edge_aligned ~seed:9 n ~clock_ps ~cycles in
  let baseline =
    Timing_sim.run ~drive:(stim net) ~captures_from:(fun _ -> 1) net cfg
  in
  let locked_ok =
    Timing_sim.run
      ~drive:
        (Insertion.timing_drive ~other:(stim design.Insertion.lnet) design
           design.Insertion.correct_key)
      ~captures_from:(Insertion.capture_policy design)
      design.Insertion.lnet cfg
  in
  let mism, total = Stimuli.po_agreement ~skip:1 baseline locked_ok in
  Format.printf
    "@.[gk] with the correct transitional key the locked chip matches the@.\
    \     original on %d/%d output samples (%d violations)@."
    (total - mism) total
    (List.length locked_ok.Timing_sim.violations)
