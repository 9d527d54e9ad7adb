(* Tests for every locking scheme: the conventional baselines, the
   SAT-resistant baselines, TDK, and the paper's GK/KEYGEN/insertion. *)

let tc = Alcotest.test_case

let qcheck ?(count = 50) name arb law = Qc.qcheck ~count name arb law

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 500)

let comb_circuit seed =
  let net =
    Generator.generate
      {
        Generator.gen_name = "lk";
        seed;
        n_pi = 6;
        n_po = 4;
        n_ff = 6;
        n_gates = 30;
        depth = 5;
        ff_depth_bias = 0.3;
      }
  in
  fst (Combinationalize.run net)

(* ----- Key ----- *)

let test_key_ops () =
  let names = [ "k0"; "k1"; "k2" ] in
  let a = Key.random ~seed:1 names in
  Alcotest.(check int) "arity" 3 (List.length a);
  let b = Key.random ~seed:1 names in
  Alcotest.(check bool) "deterministic" true (Key.equal a b);
  let f = Key.flip a "k1" in
  Alcotest.(check bool) "flip changed" false (Key.equal a f);
  Alcotest.(check bool) "flip only k1" true
    (List.assoc "k0" a = List.assoc "k0" f && List.assoc "k1" a <> List.assoc "k1" f);
  let w = Key.random_wrong ~seed:2 a in
  Alcotest.(check bool) "wrong differs" false (Key.equal a w);
  Alcotest.(check int) "enumerate" 8 (Seq.length (Key.enumerate names));
  Alcotest.check_raises "flip unknown" Not_found (fun () ->
      ignore (Key.flip a "zz"))

(* ----- Locked helpers ----- *)

let test_splice () =
  let n = Netlist.create "s" in
  let a = Netlist.add_input n "a" in
  let g1 = Netlist.add_gate n Cell.Not [| a |] in
  let g2 = Netlist.add_gate n Cell.Not [| g1 |] in
  Netlist.add_output n "y" g1;
  let b =
    Locked.splice_all_fanouts n ~target:g1 ~build:(fun () ->
        Netlist.add_gate n Cell.Buf [| g1 |])
  in
  Alcotest.(check int) "consumer rewired" b (Netlist.node n g2).Netlist.fanins.(0);
  Alcotest.(check (list (pair string int))) "po rewired" [ ("y", b) ]
    (Netlist.outputs n);
  Alcotest.(check int) "buffer reads target" g1 (Netlist.node n b).Netlist.fanins.(0)

(* ----- XOR / MUX locking ----- *)

let xor_correct_key_law seed =
  let comb = comb_circuit seed in
  let lk = Xor_lock.lock ~seed comb ~n_keys:6 in
  Equiv.check ~fixed_b:lk.Locked.correct_key comb lk.Locked.net = Equiv.Equivalent

let mux_correct_key_law seed =
  let comb = comb_circuit seed in
  let lk = Mux_lock.lock ~seed comb ~n_keys:6 in
  Equiv.check ~fixed_b:lk.Locked.correct_key comb lk.Locked.net = Equiv.Equivalent

let test_xor_structure () =
  let comb = comb_circuit 9 in
  let lk = Xor_lock.lock ~seed:9 comb ~n_keys:5 in
  Alcotest.(check int) "key inputs" 5 (List.length lk.Locked.key_inputs);
  Alcotest.(check int) "cells +5" ((Stats.of_netlist comb).Stats.cells + 5)
    (Stats.of_netlist lk.Locked.net).Stats.cells;
  (* with_key_fixed specializes the keys away *)
  let fixed = Locked.with_key_fixed lk lk.Locked.correct_key in
  match Equiv.check comb fixed with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail "with_key_fixed broke the function"

let test_xor_wrong_key_corrupts () =
  let comb = comb_circuit 10 in
  let lk = Xor_lock.lock ~seed:10 comb ~n_keys:5 in
  (* flipping one key bit inverts an internal wire: find some input where
     outputs differ (true for non-redundant wires; check at least one of
     the 5 flips corrupts) *)
  let corrupts =
    List.exists
      (fun name ->
        Equiv.check ~fixed_b:(Key.flip lk.Locked.correct_key name) comb
          lk.Locked.net
        <> Equiv.Equivalent)
      lk.Locked.key_inputs
  in
  Alcotest.(check bool) "some flip corrupts" true corrupts

let test_mux_acyclic () =
  (* heavy fan-in circuit: decoy choice must never create a cycle *)
  for seed = 1 to 10 do
    let comb = comb_circuit (100 + seed) in
    let lk = Mux_lock.lock ~seed comb ~n_keys:8 in
    Netlist.validate lk.Locked.net
  done

(* Fuzz-found regression (lock-property family): on these case seeds every
   MUX key-gate used to land on a functionally unobservable wire — flipping
   any single key bit left the circuit exactly equivalent, so the lock
   protected nothing.  Target/decoy pairs must now be sampled-observable. *)
let test_mux_flip_observable () =
  List.iter
    (fun seed ->
      let comb =
        fst
          (Combinationalize.run
             (Generator.generate
                {
                  Generator.gen_name = Printf.sprintf "lp%d" seed;
                  seed;
                  n_pi = 6;
                  n_po = 4;
                  n_ff = 6;
                  n_gates = 30;
                  depth = 5;
                  ff_depth_bias = 0.2;
                }))
      in
      let lk = Mux_lock.lock ~seed comb ~n_keys:5 in
      (match Equiv.check ~fixed_b:lk.Locked.correct_key comb lk.Locked.net with
      | Equiv.Equivalent -> ()
      | Equiv.Different _ -> Alcotest.fail "correct key not transparent");
      let corrupting =
        List.filter
          (fun name ->
            Metrics.bit_error_rate ~samples:128 ~seed ~reference:comb lk
              (Key.flip lk.Locked.correct_key name)
            > 0.)
          lk.Locked.key_inputs
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: some flip corrupts" seed)
        true
        (corrupting <> []))
    [
      4504999465468316646;
      1956143378011559044;
      2505266000894152716;
      1501109808130665824;
    ]

(* ----- SARLock ----- *)

let test_sarlock_semantics () =
  let comb = comb_circuit 11 in
  let n_keys = 4 in
  let lk = Sarlock.lock ~seed:11 comb ~n_keys in
  (* correct key: full equivalence *)
  (match Equiv.check ~fixed_b:lk.Locked.correct_key comb lk.Locked.net with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail "correct key not transparent");
  (* wrong key: flips the PO exactly when the comparator matches; check a
     wrong key disagrees somewhere *)
  let wrong = Key.random_wrong ~seed:1 lk.Locked.correct_key in
  Alcotest.(check bool) "wrong key corrupts" true
    (Equiv.check ~fixed_b:wrong comb lk.Locked.net <> Equiv.Equivalent)

let test_sarlock_point_function () =
  (* each wrong key corrupts at most a single input pattern of the
     comparator inputs: count disagreement over all patterns of the chosen
     PIs with other PIs fixed *)
  let comb = comb_circuit 12 in
  let lk = Sarlock.lock ~seed:12 comb ~n_keys:3 in
  let wrong = Key.random_wrong ~seed:5 lk.Locked.correct_key in
  let fixed = Locked.with_key_fixed lk wrong in
  let pis = Netlist.inputs fixed in
  let n = List.length pis in
  if n > 16 then ()
  else begin
    let mismatches = ref 0 in
    for row = 0 to (1 lsl n) - 1 do
      let assign =
        List.mapi (fun i pi -> (pi, row land (1 lsl i) <> 0)) pis
      in
      let v1 = Netlist.eval_comb comb (fun id ->
        let name = (Netlist.node comb id).Netlist.name in
        let id2 = Option.get (Netlist.find fixed name) in
        List.assoc id2 assign) in
      let v2 = Netlist.eval_comb fixed (fun id -> List.assoc id assign) in
      let differs =
        List.exists
          (fun (po, d2) -> v2.(d2) <> v1.(List.assoc po (Netlist.outputs comb)))
          (Netlist.outputs fixed)
      in
      if differs then incr mismatches
    done;
    (* one comparator pattern times 2^(n-3) assignments of the other PIs *)
    Alcotest.(check int) "point corruption" (1 lsl (n - 3)) !mismatches
  end

(* ----- Anti-SAT ----- *)

let test_antisat_semantics () =
  let comb = comb_circuit 13 in
  let lk = Antisat.lock ~seed:13 comb ~n:4 in
  Alcotest.(check int) "2n keys" 8 (List.length lk.Locked.key_inputs);
  (match Equiv.check ~fixed_b:lk.Locked.correct_key comb lk.Locked.net with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail "correct key not transparent");
  (* K_A = K_B (even if not the generated vector) is also correct — the
     Anti-SAT property *)
  let alt =
    List.map
      (fun (name, _) -> (name, true))
      lk.Locked.correct_key
  in
  (match Equiv.check ~fixed_b:alt comb lk.Locked.net with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail "KA=KB should be transparent")

(* ----- TDK ----- *)

let test_tdk_structure () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:2.0 in
  let tdk = Tdk.lock ~seed:3 net ~clock_ps:clock ~n_sites:2 in
  Alcotest.(check int) "4 keys" 4 (List.length tdk.Tdk.locked.Locked.key_inputs);
  Netlist.validate tdk.Tdk.locked.Locked.net;
  (* with the correct functional+delay key the combinational view is the
     original *)
  let c1, _ = Combinationalize.run net in
  let c2, _ = Combinationalize.run tdk.Tdk.locked.Locked.net in
  match Equiv.check ~fixed_b:tdk.Tdk.locked.Locked.correct_key c1 c2 with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail "correct TDK key not transparent"

let test_tdk_wrong_delay_key_violates () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:2.0 in
  let tdk = Tdk.lock ~seed:4 net ~clock_ps:clock ~n_sites:2 in
  let lnet = tdk.Tdk.locked.Locked.net in
  (* STA must see the TDB chain (worst case through the MUX) blow the
     endpoint's setup slack — the "violating the setup time constraints"
     of the paper's Fig. 2(c). *)
  let sta = Sta.analyze lnet ~clock_ps:clock in
  List.iter
    (fun site ->
      Alcotest.(check bool) "negative worst-case slack" true
        (Sta.setup_slack sta site.Tdk.ff < 0))
    tdk.Tdk.sites;
  (* Functionally, the wrong delay key makes the endpoint capture stale
     data: its behaviour diverges from the correct key's. *)
  let cycles = 8 in
  let run key =
    let drive pi =
      match List.assoc_opt (Netlist.node lnet pi).Netlist.name key with
      | Some b -> Timing_sim.Const b
      | None -> Stimuli.edge_aligned ~seed:5 lnet ~clock_ps:clock ~cycles pi
    in
    Timing_sim.run ~drive lnet { Timing_sim.clock_ps = clock; cycles }
  in
  let correct = run tdk.Tdk.locked.Locked.correct_key in
  let wrong =
    run
      (List.map
         (fun (n, b) ->
           (n, if String.length n > 3 && n.[3] = 'd' then not b else b))
         tdk.Tdk.locked.Locked.correct_key)
  in
  let stale = ref false in
  Array.iteri
    (fun i _ ->
      Array.iteri
        (fun k v ->
          if not (Logic.equal v wrong.Timing_sim.ff_samples.(i).(k)) then
            stale := true)
        correct.Timing_sim.ff_samples.(i))
    correct.Timing_sim.ff_ids;
  Alcotest.(check bool) "wrong delay key captures stale data" true !stale

(* ----- GK ----- *)

let test_gk_stable_function () =
  (* stable logic: variant (a) is an inverter for both constant keys,
     variant (b) a buffer *)
  let check variant expected_inverts =
    let net = Netlist.create "g" in
    let x = Netlist.add_input net "x" in
    let key = Netlist.add_input net "key" in
    let gk =
      Gk.insert net ~profile:`Custom ~name:"gk" ~x ~key ~variant
        ~d_path_a_ps:500 ~d_path_b_ps:500 ()
    in
    Netlist.add_output net "y" gk.Gk.out;
    List.iter
      (fun (xv, kv) ->
        let values =
          Netlist.eval_comb net (fun id -> if id = x then xv else kv)
        in
        Alcotest.(check bool)
          (Printf.sprintf "x=%b k=%b" xv kv)
          (if expected_inverts then not xv else xv)
          values.(gk.Gk.out))
      [ (false, false); (false, true); (true, false); (true, true) ]
  in
  check Gk.Invert_on_const true;
  check Gk.Buffer_on_const false;
  Alcotest.(check bool) "stable fn tags" true
    (Gk.stable_function Gk.Invert_on_const = `Inverter
    && Gk.stable_function Gk.Buffer_on_const = `Buffer)

let test_gk_glitch_lengths () =
  let net = Netlist.create "g" in
  let x = Netlist.add_input net "x" in
  let key = Netlist.add_input net "key" in
  let gk =
    Gk.insert net ~profile:`Custom ~name:"gk" ~x ~key
      ~variant:Gk.Invert_on_const ~d_path_a_ps:700 ~d_path_b_ps:1200 ()
  in
  Alcotest.(check int) "rise = DB + mux" (1200 + gk.Gk.d_mux_ps)
    (Gk.glitch_on_rise_ps gk);
  Alcotest.(check int) "fall = DA + mux" (700 + gk.Gk.d_mux_ps)
    (Gk.glitch_on_fall_ps gk);
  Alcotest.(check bool) "nodes tracked" true (List.length gk.Gk.nodes >= 5)

let test_gk_variant_b_glitch_inverts () =
  (* variant (b): buffer stably, the glitch carries x' *)
  let net = Netlist.create "g" in
  let x = Netlist.add_input net "x" in
  let key = Netlist.add_input net "key" in
  let gk =
    Gk.insert net ~profile:`Custom ~name:"gk" ~x ~key
      ~variant:Gk.Buffer_on_const ~d_path_a_ps:910 ~d_path_b_ps:910 ()
  in
  Netlist.add_output net "y" gk.Gk.out;
  let drive pi =
    if pi = x then Timing_sim.Const true
    else Timing_sim.Wave (Waveform.make ~initial:Logic.F [ (2000, Logic.T) ])
  in
  let r = Timing_sim.run ~drive net { Timing_sim.clock_ps = 8000; cycles = 1 } in
  let y = Timing_sim.wave_of r net "gk_mux" in
  (* stable 1 (buffer of x=1), glitch to 0 *)
  Alcotest.(check char) "stable" '1' (Logic.to_char (Waveform.value_at y 1000));
  Alcotest.(check char) "glitch low" '0'
    (Logic.to_char (Waveform.value_at y (2000 + gk.Gk.d_mux_ps + 200)));
  Alcotest.(check char) "recovers" '1' (Logic.to_char (Waveform.value_at y 4000))

(* ----- Keygen ----- *)

let test_keygen_selections () =
  let clock = 6000 in
  let run k1v k2v =
    let net = Netlist.create "kg" in
    let k1 = Netlist.add_input net "k1" in
    let k2 = Netlist.add_input net "k2" in
    let kg =
      Keygen.insert net ~profile:`Custom ~name:"kg" ~k1 ~k2 ~adb_da_ps:1000
        ~adb_db_ps:2500 ()
    in
    Netlist.add_output net "key_out" kg.Keygen.key_out;
    let drive pi = Timing_sim.Const (if pi = k1 then k1v else k2v) in
    let r = Timing_sim.run ~drive net { Timing_sim.clock_ps = clock; cycles = 2 } in
    (kg, Timing_sim.wave_of r net "kg_out")
  in
  (* constants *)
  let _, w00 = run false false in
  Alcotest.(check int) "const0 no transitions" 0
    (List.length (Waveform.transitions w00));
  let _, w11 = run true true in
  Alcotest.(check char) "const1" '1' (Logic.to_char (Waveform.value_at w11 100));
  (* delayed branches: first transition at clk2q + chain + 2 mux levels,
     within cycle 0 (edge 0 launches the toggle) *)
  let kg, w01 = run false true in
  (match Waveform.transitions w01 with
  | (t, _) :: _ ->
    Alcotest.(check int) "branch A trigger" (Keygen.trigger_time_a_ps kg) t
  | [] -> Alcotest.fail "no transition on branch A");
  let kg2, w10 = run true false in
  (match Waveform.transitions w10 with
  | (t, _) :: _ ->
    Alcotest.(check int) "branch B trigger" (Keygen.trigger_time_b_ps kg2) t
  | [] -> Alcotest.fail "no transition on branch B");
  (* one transition per cycle *)
  Alcotest.(check int) "per-cycle transitions" 3
    (List.length (Waveform.transitions w01))

let test_keygen_helpers () =
  Alcotest.(check bool) "selection_of" true
    (Keygen.selection_of ~k1:false ~k2:true = Keygen.Sel_delay_a);
  Alcotest.(check bool) "key_for inverse" true
    (Keygen.key_for Keygen.Sel_delay_b = (true, false));
  (match Keygen.chain_target_for ~t_trigger_ps:100 with
  | None -> ()
  | Some _ -> Alcotest.fail "trigger below clk2q should be unreachable");
  match Keygen.chain_target_for ~t_trigger_ps:2000 with
  | Some t ->
    Alcotest.(check int) "target arithmetic"
      (2000 - Cell_lib.dff_clk2q_ps - (2 * (Cell_lib.bind Cell.Mux 3).Cell.delay_ps))
      t
  | None -> Alcotest.fail "reachable trigger"

(* ----- Ff_select ----- *)

let test_ff_select () =
  let net = Benchmarks.tiny () in
  let ffs = Netlist.ffs net in
  let groups = Ff_select.groups net ~among:ffs in
  let total = List.fold_left (fun a g -> a + List.length g) 0 groups in
  Alcotest.(check int) "partition" (List.length ffs) total;
  Alcotest.(check int) "selected = largest" (List.length (List.hd groups))
    (Ff_select.selected_count net ~among:ffs);
  let picked = Ff_select.pick net ~among:ffs ~n:3 ~seed:1 in
  Alcotest.(check int) "picked 3" 3 (List.length picked);
  Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare picked));
  Alcotest.check_raises "too many"
    (Invalid_argument "Ff_select.pick: not enough flip-flops") (fun () ->
      ignore (Ff_select.pick net ~among:ffs ~n:99 ~seed:1))

(* ----- Insertion ----- *)

let test_insertion_sites_satisfy_eqs () =
  let spec = Option.get (Benchmarks.find_spec "s5378") in
  let net = Benchmarks.load spec in
  let clock = Sta.clock_for net ~margin:spec.Benchmarks.clk_margin in
  let sites = Insertion.available_sites net ~clock_ps:clock ~l_glitch_ps:1000 in
  let d_mux = (Cell_lib.bind Cell.Mux 3).Cell.delay_ps in
  Alcotest.(check bool) "non-empty" true (sites <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool) "eq3" true
        (Gk_timing.feasible_on_level s.Insertion.si_site ~l_glitch:1000 ~d_mux);
      let lo, hi = s.Insertion.si_window in
      Alcotest.(check bool) "window sane" true (lo < hi))
    sites

let test_insertion_lock_metadata () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:3 in
  Alcotest.(check int) "placements" 3 (List.length d.Insertion.placements);
  Alcotest.(check int) "key inputs 2/gk" 6 (List.length d.Insertion.key_inputs);
  List.iter
    (fun p ->
      (* correct key selects a delayed branch, never a constant *)
      let b1, b2 = p.Insertion.p_correct in
      Alcotest.(check bool) "transitional key" true (b1 <> b2);
      (* the intended glitch covers the capture window *)
      let start, stop = p.Insertion.p_glitch in
      Alcotest.(check bool) "covers window" true
        (start <= clock - Cell_lib.dff_setup_ps
        && stop >= clock + Cell_lib.dff_hold_ps);
      Alcotest.(check bool) "intended lookup" true
        (Insertion.intended_glitches d p.Insertion.p_ff = Some p.Insertion.p_glitch))
    d.Insertion.placements;
  Alcotest.(check bool) "missing ff" true (Insertion.intended_glitches d 0 = None
    || List.exists (fun p -> p.Insertion.p_ff = 0) d.Insertion.placements)

let test_insertion_not_enough_sites () =
  let net = Benchmarks.s27 () in
  Alcotest.(check bool) "raises" true
    (match Insertion.lock net ~clock_ps:700 ~n_gks:2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let insertion_correct_key_timing_law seed =
  (* The flagship invariant: with the correct key the locked design's
     timing-true behaviour equals the original's. *)
  let net =
    Generator.generate
      {
        Generator.gen_name = "ik";
        seed = seed + 1000;
        n_pi = 5;
        n_po = 4;
        n_ff = 6;
        n_gates = 30;
        depth = 6;
        ff_depth_bias = 0.2;
      }
  in
  let clock_ps = max (Sta.clock_for net ~margin:1.2) 2600 in
  match Insertion.lock ~seed net ~clock_ps ~n_gks:2 with
  | exception Invalid_argument _ -> true (* no sites in this toy circuit *)
  | d ->
    let cycles = 10 in
    let cfg = { Timing_sim.clock_ps; cycles } in
    let stim n = Stimuli.edge_aligned ~seed:(seed + 7) n ~clock_ps ~cycles in
    (* Both sides hold reset through cycle 0; the locked design's KEYGEN
       toggles run free, so every data capture is glitch-covered. *)
    let base =
      Timing_sim.run ~drive:(stim net) ~captures_from:(fun _ -> 1) net cfg
    in
    let locked =
      Timing_sim.run
        ~drive:
          (Insertion.timing_drive ~other:(stim d.Insertion.lnet) d
             d.Insertion.correct_key)
        ~captures_from:(Insertion.capture_policy d) d.Insertion.lnet cfg
    in
    let mism, _ = Stimuli.po_agreement ~skip:0 base locked in
    mism = 0 && locked.Timing_sim.violations = []

let test_strip_keygens () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, keys = Insertion.strip_keygens d in
  Alcotest.(check int) "one key per gk" 2 (List.length keys);
  (* keygen toggle FFs removed: FF count back to the original *)
  Alcotest.(check int) "ff count restored"
    (List.length (Netlist.ffs net))
    (List.length (Netlist.ffs stripped));
  (* the GK structure remains: stable function = inverter on the D path *)
  Alcotest.(check bool) "gkkey inputs exist" true
    (List.for_all (fun k -> Netlist.find stripped k <> None) keys)

let test_insertion_false_violations () =
  (* the locked design STA shows only false violations (explained by the
     intended glitches) *)
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let sta = Sta.analyze d.Insertion.lnet ~clock_ps:clock in
  let entries = Timing_report.discriminate sta ~intended:(Insertion.intended_glitches d) in
  Alcotest.(check int) "no true violations" 0
    (List.length (Timing_report.true_violations entries))

(* ----- Hybrid ----- *)

let test_hybrid () =
  let spec = Option.get (Benchmarks.find_spec "s5378") in
  let net = Benchmarks.load spec in
  let clock = Sta.clock_for net ~margin:spec.Benchmarks.clk_margin in
  let h = Hybrid.lock ~seed:4 net ~clock_ps:clock ~n_gks:8 ~n_xors:16 in
  Alcotest.(check int) "32 key inputs" 32 (List.length h.Hybrid.all_key_inputs);
  Alcotest.(check int) "16 xor keys" 16 (List.length h.Hybrid.xor_key_inputs);
  let ch, _ = Hybrid.overhead h in
  let d16 = Insertion.lock ~seed:4 net ~clock_ps:clock ~n_gks:16 in
  let c16, _ = Insertion.overhead d16 in
  Alcotest.(check bool) "hybrid cheaper than 16 GKs" true (ch < c16)

(* ----- Withhold ----- *)

let test_withhold_truth () =
  let net = Netlist.create "w" in
  let a = Netlist.add_input net "a" in
  let b = Netlist.add_input net "b" in
  let c = Netlist.add_input net "c" in
  let g1 = Netlist.add_gate net Cell.And [| a; b |] in
  let g2 = Netlist.add_gate net Cell.Xor [| g1; c |] in
  Netlist.add_output net "y" g2;
  let reference = Netlist.copy net in
  let absorbed = Withhold.absorb net ~root:g2 ~interior:[ g1 ] in
  Alcotest.(check int) "3 leaves" 3 (List.length absorbed.Withhold.lut_inputs);
  Netlist.validate net;
  (match Equiv.check reference net with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail "absorption changed the function");
  Alcotest.(check bool) "hidden" true
    (List.mem g1 absorbed.Withhold.hidden_nodes)

let test_withhold_guards () =
  let net = Netlist.create "w" in
  let a = Netlist.add_input net "a" in
  let g1 = Netlist.add_gate net Cell.Not [| a |] in
  let g2 = Netlist.add_gate net Cell.Not [| g1 |] in
  let g3 = Netlist.add_gate net Cell.And [| g1; g2 |] in
  Netlist.add_output net "y" g3;
  (* g1 escapes through g3: absorbing root g2 with interior g1 must fail *)
  Alcotest.(check bool) "escape rejected" true
    (match Withhold.absorb net ~root:g2 ~interior:[ g1 ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "candidate count" true
    (Withhold.candidate_functions 3 = 256.0)

let suites =
  [
    ("locking.key", [ tc "ops" `Quick test_key_ops ]);
    ("locking.locked", [ tc "splice" `Quick test_splice ]);
    ( "locking.xor",
      [
        tc "structure" `Quick test_xor_structure;
        tc "wrong key corrupts" `Quick test_xor_wrong_key_corrupts;
        qcheck ~count:20 "correct key transparent" seed_arb xor_correct_key_law;
      ] );
    ( "locking.mux",
      [
        tc "acyclic" `Quick test_mux_acyclic;
        tc "flipped key bit observable" `Quick test_mux_flip_observable;
        qcheck ~count:20 "correct key transparent" seed_arb mux_correct_key_law;
      ] );
    ( "locking.sarlock",
      [
        tc "semantics" `Quick test_sarlock_semantics;
        tc "point function" `Slow test_sarlock_point_function;
      ] );
    ("locking.antisat", [ tc "semantics" `Quick test_antisat_semantics ]);
    ( "locking.tdk",
      [
        tc "structure" `Quick test_tdk_structure;
        tc "wrong delay key violates" `Quick test_tdk_wrong_delay_key_violates;
      ] );
    ( "locking.gk",
      [
        tc "stable function" `Quick test_gk_stable_function;
        tc "glitch lengths" `Quick test_gk_glitch_lengths;
        tc "variant (b) glitch inverts" `Quick test_gk_variant_b_glitch_inverts;
      ] );
    ( "locking.keygen",
      [
        tc "four selections" `Quick test_keygen_selections;
        tc "helpers" `Quick test_keygen_helpers;
      ] );
    ("locking.ff_select", [ tc "groups/pick" `Quick test_ff_select ]);
    ( "locking.insertion",
      [
        tc "sites satisfy the equations" `Quick test_insertion_sites_satisfy_eqs;
        tc "lock metadata" `Quick test_insertion_lock_metadata;
        tc "not enough sites" `Quick test_insertion_not_enough_sites;
        tc "strip keygens" `Quick test_strip_keygens;
        tc "only false violations" `Quick test_insertion_false_violations;
        qcheck ~count:12 "correct key is timing-transparent" seed_arb
          insertion_correct_key_timing_law;
      ] );
    ("locking.hybrid", [ tc "composition" `Slow test_hybrid ]);
    ( "locking.withhold",
      [
        tc "truth preserved" `Quick test_withhold_truth;
        tc "guards" `Quick test_withhold_guards;
      ] );
  ]
