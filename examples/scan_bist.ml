(* Scan/BIST weakness and the hybrid counter-measure (Sec. VI).

   The paper concedes: "our GK may has a weakness when there are built-in
   self-test (BIST) structures such as scan-chain in the circuit [...]
   the GK that works solely to encrypt the input of FF at the end of the
   path can provide only limited security."  This example makes that
   concrete: scan access turns the chip into a next-state oracle, and a
   GK-only design is read out like a book — no SAT solver involved.
   Mixing conventional XOR key-gates into the encrypted cones (the
   paper's hybrid) takes the attacker's reference values away.

   Run with: dune exec examples/scan_bist.exe
   A wrong outcome exits 1. *)

let pf = Format.printf

let fail msg =
  pf "%s@." msg;
  exit 1

let show_verdicts verdicts =
  List.iter
    (fun v ->
      pf "  %-12s -> %-8s (buffer fits %d/%d samples, inverter %d/%d)@."
        v.Scan_attack.v_ppo
        (match v.Scan_attack.v_behaviour with
        | `Buffer -> "BUFFER"
        | `Inverter -> "INVERTER"
        | `Unknown -> "unknown")
        v.Scan_attack.v_agree_buffer v.Scan_attack.v_samples
        v.Scan_attack.v_agree_inverter v.Scan_attack.v_samples)
    verdicts

let () =
  (* Scan insertion itself: functional transparency. *)
  let net = Benchmarks.tiny () in
  let scanned, chain = Scan.insert net in
  pf "scan chain over %d flip-flops (%s -> ... -> %s)@."
    (List.length chain.Scan.order) chain.Scan.scan_in chain.Scan.scan_out;
  let view = Scan.functional_view scanned chain in
  let c1, _ = Combinationalize.run net in
  let c2, _ = Combinationalize.run view in
  (match Equiv.check c1 c2 with
  | Equiv.Equivalent -> pf "scan_enable=0: design proven unchanged@."
  | Equiv.Different _ -> fail "scan broke the design?!");

  (* --- GK-only: scan reads the key-gate behaviour directly --- *)
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, _ = Insertion.strip_keygens d in
  let stripped_comb, _ = Combinationalize.run stripped in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Sat_attack.oracle_of_netlist ~partial:true oracle_comb in
  pf "@.[gk-only] scan-capture hypothesis test per located GK:@.";
  let verdicts = Scan_attack.run ~stripped_comb ~oracle () in
  show_verdicts verdicts;
  (match Scan_attack.decrypt ~stripped_comb verdicts with
  | Some recovered ->
    pf "[gk-only] decrypted WITHOUT SAT: %d/64 oracle mismatches@."
      (Sat_attack.verify_key ~locked:recovered ~key_inputs:[] ~oracle [])
  | None -> pf "[gk-only] unexpectedly blinded@.");

  (* --- hybrid: XOR keys inside the cones blind the test --- *)
  let spec = Option.get (Benchmarks.find_spec "s5378") in
  let big = Benchmarks.load spec in
  let bclock = Sta.clock_for big ~margin:spec.Benchmarks.clk_margin in
  let h = Hybrid.lock ~seed:4 big ~clock_ps:bclock ~n_gks:4 ~n_xors:8 in
  let hstripped, _ = Insertion.strip_keygens h.Hybrid.design in
  let hcomb, _ = Combinationalize.run hstripped in
  let horacle_comb, _ = Combinationalize.run big in
  let horacle = Sat_attack.oracle_of_netlist ~partial:true horacle_comb in
  pf "@.[hybrid] same attack, with %d XOR key bits the attacker cannot drive:@."
    (List.length h.Hybrid.xor_key_inputs);
  let hv =
    Scan_attack.run ~unknown:h.Hybrid.xor_key_inputs ~stripped_comb:hcomb
      ~oracle:horacle ()
  in
  show_verdicts hv;
  (match Scan_attack.decrypt ~stripped_comb:hcomb hv with
  | Some _ -> fail "[hybrid] decrypted anyway?!"
  | None ->
    pf
      "[hybrid] no trusted decryption: the unknown key bits corrupt the@.\
      \         attacker's reference values input-dependently@.");
  pf "@.conclusion: GKs need the hybrid (or withholding) once scan is present —@.";
  pf "exactly the mutual-reinforcement argument of the paper's Sec. VI.@."
