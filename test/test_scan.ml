(* Tests for scan-chain insertion and the scan-based attack of the
   paper's BIST discussion (Sec. VI). *)

let tc = Alcotest.test_case

let test_scan_structure () =
  let net = Benchmarks.tiny () in
  let scanned, chain = Scan.insert net in
  Alcotest.(check int) "chain covers all FFs"
    (List.length (Netlist.ffs net))
    (List.length chain.Scan.order);
  Alcotest.(check int) "one mux per FF"
    (List.length chain.Scan.order)
    (List.length chain.Scan.scan_muxes);
  Alcotest.(check bool) "scan_out exists" true
    (List.mem_assoc chain.Scan.scan_out (Netlist.outputs scanned));
  Alcotest.(check bool) "scan pins exist" true
    (Netlist.find scanned chain.Scan.scan_in <> None
    && Netlist.find scanned chain.Scan.scan_enable <> None)

let test_scan_functional_transparency () =
  let net = Benchmarks.tiny () in
  let scanned, chain = Scan.insert net in
  let view = Scan.functional_view scanned chain in
  (* with scan_enable = 0 the design is the original *)
  let c1, _ = Combinationalize.run net in
  let c2, _ = Combinationalize.run view in
  match Equiv.check c1 c2 with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail "scan broke the function"

let test_scan_shift () =
  (* shift mode: with scan_enable = 1, cycle-sim shifts a pattern through *)
  let net = Benchmarks.s27 () in
  let scanned, chain = Scan.insert net in
  let n = List.length chain.Scan.order in
  let pattern = [ true; false; true ] in
  let sim = Cycle_sim.create scanned in
  let se = Option.get (Netlist.find scanned chain.Scan.scan_enable) in
  let si = Option.get (Netlist.find scanned chain.Scan.scan_in) in
  List.iter
    (fun bit ->
      ignore
        (Cycle_sim.step sim ~inputs:(fun id ->
             if id = se then true else if id = si then bit else false)))
    pattern;
  (* after n shifts the first bit reached the chain tail *)
  Alcotest.(check int) "pattern length = chain" n (List.length pattern);
  let state = Cycle_sim.state sim in
  let loaded = List.map (fun ff -> List.assoc ff state) chain.Scan.order in
  Alcotest.(check (list bool)) "state = shifted pattern"
    (List.rev pattern) loaded

let test_scan_attack_cracks_gk_only () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, _ = Insertion.strip_keygens d in
  let stripped_comb, _ = Combinationalize.run stripped in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Oracle.of_netlist ~partial:true oracle_comb in
  let verdicts =
    Scan_attack.exec ~seed:29 ~budget:(Budget.unlimited ()) ~stripped_comb
      ~oracle ()
  in
  Alcotest.(check int) "both GKs tested" 2 (List.length verdicts);
  List.iter
    (fun v ->
      (* the chip runs the correct transitional key: every GK behaves as a
         buffer at capture time, and scan observation reveals exactly that *)
      Alcotest.(check bool) (v.Scan_attack.v_ppo ^ " = buffer") true
        (v.Scan_attack.v_behaviour = `Buffer))
    verdicts;
  match Scan_attack.decrypt ~stripped_comb verdicts with
  | Some recovered ->
    (* the recovered netlist matches the chip *)
    Alcotest.(check int) "decrypted" 0
      (Sat_attack.verify_key ~locked:recovered ~key_inputs:[] ~oracle [])
  | None -> Alcotest.fail "GK-only design must fall to scan"

let test_scan_attack_vs_hybrid () =
  let spec = Option.get (Benchmarks.find_spec "s5378") in
  let net = Benchmarks.load spec in
  let clock = Sta.clock_for net ~margin:spec.Benchmarks.clk_margin in
  let h = Hybrid.lock ~seed:4 net ~clock_ps:clock ~n_gks:4 ~n_xors:8 in
  let stripped, _ = Insertion.strip_keygens h.Hybrid.design in
  let stripped_comb, _ = Combinationalize.run stripped in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Oracle.of_netlist ~partial:true oracle_comb in
  let verdicts =
    Scan_attack.exec ~seed:29 ~unknown:h.Hybrid.xor_key_inputs
      ~budget:(Budget.unlimited ()) ~stripped_comb ~oracle ()
  in
  Alcotest.(check int) "GKs located" 4 (List.length verdicts);
  (* With unknown XOR key bits inside the encrypted cones, the guessed
     reference value of x is wrong on an input-dependent subset of the
     samples, so the hypothesis test loses its decisive split: at least
     one verdict must degrade to `Unknown (this seed gives two). *)
  Alcotest.(check bool) "some verdicts blinded" true
    (List.exists (fun v -> v.Scan_attack.v_behaviour = `Unknown) verdicts);
  Alcotest.(check bool) "no trusted decryption" true
    (Scan_attack.decrypt ~stripped_comb verdicts = None)

let suites =
  [
    ( "flow.scan",
      [
        tc "structure" `Quick test_scan_structure;
        tc "functional transparency" `Quick test_scan_functional_transparency;
        tc "shift mode" `Quick test_scan_shift;
      ] );
    ( "attacks.scan",
      [
        tc "cracks GK-only designs" `Quick test_scan_attack_cracks_gk_only;
        tc "hybrid resists naive scan decrypt" `Slow test_scan_attack_vs_hybrid;
      ] );
  ]
