(* Tests for the attack suite: SAT attack, signal probabilities, removal
   attacks, brute force, the two-frame TCF variant and the enhanced
   removal pipeline — including every security claim of the paper. *)

let tc = Alcotest.test_case

let qcheck ?(count = 20) name arb law = Qc.qcheck ~count name arb law

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 300)

(* the DIP-loop attacks' usual cap *)
let sat_budget () = Budget.create ~max_iterations:4096 ()

let comb_circuit seed =
  let net =
    Generator.generate
      {
        Generator.gen_name = "at";
        seed;
        n_pi = 6;
        n_po = 4;
        n_ff = 6;
        n_gates = 35;
        depth = 5;
        ff_depth_bias = 0.3;
      }
  in
  fst (Combinationalize.run net)

(* ----- oracle ----- *)

let test_oracle () =
  let net = Netlist.create "o" in
  let a = Netlist.add_input net "a" in
  let b = Netlist.add_input net "b" in
  let g = Netlist.add_gate net Cell.And [| a; b |] in
  Netlist.add_output net "y" g;
  let oracle = Oracle.query (Oracle.of_netlist net) in
  Alcotest.(check (list (pair string bool))) "11" [ ("y", true) ]
    (oracle [ ("a", true); ("b", true) ]);
  (* strict by default: underqueries and mistyped names raise *)
  Alcotest.check_raises "unassigned input raises"
    (Invalid_argument
       "Oracle.query: no value for input \"b\" of netlist o (use \
        ~partial:true to read missing inputs as false)") (fun () ->
      ignore (oracle [ ("a", true) ]));
  Alcotest.check_raises "unknown name raises"
    (Invalid_argument
       "Oracle.query: unknown input \"bb\" for netlist o (use ~partial:true \
        to ignore stray names)") (fun () ->
      ignore (oracle [ ("a", true); ("bb", true) ]));
  (* the escape hatch restores the permissive semantics *)
  let permissive = Oracle.query (Oracle.of_netlist ~partial:true net) in
  Alcotest.(check (list (pair string bool))) "unmentioned reads false"
    [ ("y", false) ]
    (permissive [ ("a", true); ("stray", true) ])

(* ----- SAT attack ----- *)

let sat_recovers_xor_law seed =
  let comb = comb_circuit seed in
  let lk = Xor_lock.lock ~seed comb ~n_keys:8 in
  let oracle = Oracle.of_netlist comb in
  match
    (Sat_attack.exec ~budget:(sat_budget ()) ~locked:lk.Locked.net
       ~key_inputs:lk.Locked.key_inputs ~oracle ())
      .Sat_attack.status
  with
  | Sat_attack.Key_recovered k ->
    (* recovered key need not equal the inserted one, but must be
       functionally correct *)
    Equiv.check ~fixed_b:k comb lk.Locked.net = Equiv.Equivalent
  | Sat_attack.Unsat_at_first_iteration _ | Sat_attack.Budget_exhausted -> false

let sat_recovers_mux_law seed =
  let comb = comb_circuit (seed + 1) in
  let lk = Mux_lock.lock ~seed comb ~n_keys:6 in
  let oracle = Oracle.of_netlist comb in
  match
    (Sat_attack.exec ~budget:(sat_budget ()) ~locked:lk.Locked.net
       ~key_inputs:lk.Locked.key_inputs ~oracle ())
      .Sat_attack.status
  with
  | Sat_attack.Key_recovered k ->
    Sat_attack.verify_key ~locked:lk.Locked.net
      ~key_inputs:lk.Locked.key_inputs ~oracle k
    = 0
  | Sat_attack.Unsat_at_first_iteration _ | Sat_attack.Budget_exhausted -> false

let test_sat_attack_budget () =
  let comb = comb_circuit 7 in
  let lk = Sarlock.lock ~seed:7 comb ~n_keys:8 in
  let oracle = Oracle.of_netlist comb in
  let o =
    Sat_attack.exec ~budget:(Budget.create ~max_iterations:5 ())
      ~locked:lk.Locked.net ~key_inputs:lk.Locked.key_inputs ~oracle ()
  in
  Alcotest.(check bool) "budget exhausted" true
    (o.Sat_attack.status = Sat_attack.Budget_exhausted);
  Alcotest.(check int) "iterations = budget" 5 o.Sat_attack.iterations

let test_sat_attack_guards () =
  let net = Benchmarks.s27 () in
  let oracle = Oracle.of_netlist net in
  Alcotest.(check bool) "rejects sequential" true
    (match
       Sat_attack.exec ~budget:(sat_budget ()) ~locked:net ~key_inputs:[]
         ~oracle ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let comb, _ = Combinationalize.run net in
  Alcotest.(check bool) "rejects unknown key" true
    (match
       Sat_attack.exec ~budget:(sat_budget ()) ~locked:comb
         ~key_inputs:[ "nope" ] ~oracle ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The paper's SARLock claim: the attack needs one DIP per wrong key. *)
let test_sarlock_iteration_count () =
  let comb = comb_circuit 21 in
  let n_keys = 5 in
  let lk = Sarlock.lock ~seed:21 comb ~n_keys in
  let oracle = Oracle.of_netlist comb in
  let o =
    Sat_attack.exec ~budget:(sat_budget ()) ~locked:lk.Locked.net
      ~key_inputs:lk.Locked.key_inputs ~oracle ()
  in
  (* 2^n - 1 wrong keys, each eliminated by (at least) one DIP; allow a
     little slack for DIPs that eliminate none *)
  Alcotest.(check bool)
    (Printf.sprintf "iterations %d ~ 2^%d" o.Sat_attack.iterations n_keys)
    true
    (o.Sat_attack.iterations >= (1 lsl n_keys) - 1
    && o.Sat_attack.iterations <= (1 lsl n_keys) + 4)

(* The headline claim: GK-locked designs give UNSAT at the first DIP
   search and the leftover key is wrong on the real chip. *)
let gk_unsat_at_first_law seed =
  let net =
    Generator.generate
      {
        Generator.gen_name = "gku";
        seed = seed + 2000;
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
  | exception Invalid_argument _ -> true
  | d ->
    let stripped, keys = Insertion.strip_keygens d in
    let locked_comb, _ = Combinationalize.run stripped in
    let oracle_comb, _ = Combinationalize.run net in
    let oracle = Oracle.of_netlist oracle_comb in
    (match
       (Sat_attack.exec ~budget:(sat_budget ()) ~locked:locked_comb
          ~key_inputs:keys ~oracle ())
         .Sat_attack.status
     with
    | Sat_attack.Unsat_at_first_iteration k ->
      Sat_attack.verify_key ~locked:locked_comb ~key_inputs:keys ~oracle k > 0
    | Sat_attack.Key_recovered _ | Sat_attack.Budget_exhausted -> false)

(* The paper's Sec. VI claim as an invariant on all seven benchmarks,
   with the end-to-end gk_sat workload's checks: after GK-8 locking and
   KEYGEN stripping the SAT attack finds no DIP, and on the timing-true
   design the correct key corrupts no sample while the key the attack
   leaves (k1 = k2 = b at every GK, the KEYGEN selection that outputs the
   constant b) corrupts some.  A sample is a primary output or a data
   flip-flop, matched by name, after two warm-up cycles. *)
let test_gk8_every_benchmark () =
  let seed = 1 and cycles = 24 in
  List.iter
    (fun spec ->
      let bname = spec.Benchmarks.bname in
      let net = Benchmarks.load spec in
      let clock_ps = Sta.clock_for net ~margin:spec.Benchmarks.clk_margin in
      let d = Insertion.lock ~seed net ~clock_ps ~n_gks:8 in
      let stripped, keys = Insertion.strip_keygens d in
      let locked = fst (Combinationalize.run stripped) in
      let o =
        Attack.run ~seed ~name:"sat" ~locked ~key_inputs:keys
          ~oracle:(Oracle.of_netlist (fst (Combinationalize.run net)))
          ()
      in
      Alcotest.(check int) (bname ^ ": no DIP") 0 o.Attack.iterations;
      let left =
        match o.Attack.verdict with
        | Attack.No_dip { key; mismatches } when mismatches > 0 -> key
        | v -> Alcotest.failf "%s: verdict %s, wanted a refuted no_dip" bname (Attack.verdict_name v)
      in
      let sim = { Timing_sim.clock_ps; cycles } in
      let stim n = Stimuli.edge_aligned ~seed n ~clock_ps ~cycles in
      let base = Timing_sim.run ~drive:(stim net) ~captures_from:(fun _ -> 1) net sim in
      let corrupted key =
        Stimuli.state_mismatches ~skip:2 net base d.Insertion.lnet
          (Timing_sim.run
             ~drive:(Insertion.timing_drive ~other:(stim d.Insertion.lnet) d key)
             ~captures_from:(Insertion.capture_policy d) d.Insertion.lnet sim)
      in
      let leftover =
        List.concat
          (List.mapi
             (fun i p ->
               let b = List.assoc (Printf.sprintf "gkkey%d" i) left in
               [ (p.Insertion.p_k1_name, b); (p.Insertion.p_k2_name, b) ])
             d.Insertion.placements)
      in
      Alcotest.(check int) (bname ^ ": correct key corrupts nothing") 0
        (corrupted d.Insertion.correct_key);
      Alcotest.(check bool) (bname ^ ": leftover key corrupts samples") true
        (corrupted leftover > 0))
    Benchmarks.specs

(* ----- Signal probabilities ----- *)

let test_signal_prob_basics () =
  let net = Netlist.create "p" in
  let a = Netlist.add_input net "a" in
  let b = Netlist.add_input net "b" in
  let x = Netlist.add_gate net Cell.Xor [| a; b |] in
  let an = Netlist.add_gate net Cell.And [| a; b |] in
  let c = Netlist.add_const net true in
  let g = Netlist.add_gate net Cell.And [| x; c |] in
  Netlist.add_output net "x" g;
  Netlist.add_output net "a" an;
  let probs = Signal_prob.estimate ~samples:4096 net in
  Alcotest.(check bool) "xor ~ 0.5" true (abs_float (probs.(x) -. 0.5) < 0.05);
  Alcotest.(check bool) "and ~ 0.25" true (abs_float (probs.(an) -. 0.25) < 0.05);
  Alcotest.(check bool) "const = 1" true (probs.(c) = 1.0)

let test_signal_prob_skew_finds_sarlock () =
  let comb = comb_circuit 31 in
  let lk = Sarlock.lock ~seed:31 comb ~n_keys:7 in
  let probs = Signal_prob.estimate ~samples:4096 lk.Locked.net in
  let flip = Option.get (Netlist.find lk.Locked.net "sar_flip") in
  let skewed = Signal_prob.skewed ~eps:0.05 lk.Locked.net probs in
  Alcotest.(check bool) "flip is skewed" true
    (List.exists (fun (id, _) -> id = flip) skewed)

(* ----- Removal attacks ----- *)

let removal_kills_sarlock_law seed =
  let comb = comb_circuit (seed + 40) in
  let lk = Sarlock.lock ~seed comb ~n_keys:7 in
  let oracle = Oracle.of_netlist ~partial:true comb in
  let o =
    Removal_attack.exec ~budget:(Budget.unlimited ()) lk.Locked.net ~oracle
  in
  o.Removal_attack.success

let test_removal_kills_antisat () =
  let comb = comb_circuit 44 in
  let lk = Antisat.lock ~seed:44 comb ~n:7 in
  let oracle = Oracle.of_netlist ~partial:true comb in
  let o =
    Removal_attack.exec ~budget:(Budget.unlimited ()) lk.Locked.net ~oracle
  in
  Alcotest.(check bool) "success" true o.Removal_attack.success;
  match o.Removal_attack.restored with
  | Some restored ->
    (* the restored netlist is functionally the original *)
    Alcotest.(check bool) "agrees on samples" true
      (Sat_attack.verify_key ~locked:restored ~key_inputs:[] ~oracle [] = 0)
  | None -> Alcotest.fail "no restored netlist"

let test_removal_fails_on_xor () =
  (* conventional key-gates have no skewed security structure to excise *)
  let comb = comb_circuit 45 in
  let lk = Xor_lock.lock ~seed:45 comb ~n_keys:8 in
  let oracle = Oracle.of_netlist ~partial:true comb in
  let o =
    Removal_attack.exec ~budget:(Budget.unlimited ()) lk.Locked.net ~oracle
  in
  Alcotest.(check bool) "no easy removal" false o.Removal_attack.success

let test_tdk_strip_then_sat () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:2.0 in
  let tdk = Tdk.lock ~seed:5 net ~clock_ps:clock ~n_sites:3 in
  let stripped = Removal_attack.strip_tdbs tdk in
  (* the TDB delay chains are gone *)
  Alcotest.(check bool) "smaller" true
    ((Stats.of_netlist stripped.Locked.net).Stats.cells
    < (Stats.of_netlist tdk.Tdk.locked.Locked.net).Stats.cells);
  Alcotest.(check int) "functional keys only" 3
    (List.length stripped.Locked.key_inputs);
  let comb, _ = Combinationalize.run net in
  let tcomb, _ = Combinationalize.run stripped.Locked.net in
  let oracle = Oracle.of_netlist comb in
  match
    (Sat_attack.exec ~budget:(sat_budget ()) ~locked:tcomb
       ~key_inputs:stripped.Locked.key_inputs ~oracle ())
      .Sat_attack.status
  with
  | Sat_attack.Key_recovered k ->
    Alcotest.(check int) "decrypted" 0
      (Sat_attack.verify_key ~locked:tcomb
         ~key_inputs:stripped.Locked.key_inputs ~oracle k)
  | Sat_attack.Unsat_at_first_iteration _ | Sat_attack.Budget_exhausted ->
    Alcotest.fail "stripped TDK should fall to SAT"

let test_guess_gk () =
  (* removal vs GK: enumerate buffer/inverter replacements *)
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, _keys = Insertion.strip_keygens d in
  let locked_comb, _ = Combinationalize.run stripped in
  let located = Enhanced_removal.locate locked_comb in
  let gks =
    List.map (fun g -> (g.Enhanced_removal.mux, g.Enhanced_removal.x)) located
  in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Oracle.of_netlist ~partial:true oracle_comb in
  let o =
    Removal_attack.guess_gk ~budget:(Budget.unlimited ()) locked_comb ~gks
      ~oracle
  in
  Alcotest.(check int) "search space" 4 o.Removal_attack.total_guesses;
  (match o.Removal_attack.recovered with
  | Some _ -> ()
  | None -> Alcotest.fail "some replacement must match the chip");
  (* the matching replacement is all-buffers (glitch-time behaviour) *)
  Alcotest.(check int) "buffers found last in enumeration order"
    o.Removal_attack.total_guesses o.Removal_attack.guesses_tried

(* ----- Brute force ----- *)

let test_brute_force () =
  let comb = comb_circuit 50 in
  let lk = Xor_lock.lock ~seed:50 comb ~n_keys:5 in
  let oracle = Oracle.of_netlist comb in
  let o =
    Brute_force.exec ~budget:(Budget.unlimited ()) ~locked:lk.Locked.net
      ~key_inputs:lk.Locked.key_inputs ~oracle ()
  in
  match o.Brute_force.found with
  | Some k ->
    Alcotest.(check bool) "consistent" true
      (Sat_attack.verify_key ~locked:lk.Locked.net
         ~key_inputs:lk.Locked.key_inputs ~oracle k
      = 0)
  | None -> Alcotest.fail "brute force must find the key"

(* The key space is walked lazily: an 8-key budget over 20 key inputs
   stops after 8 keys without first building all 2^20 assignments
   (about 129 Mw of major-heap words when they were one list). *)
let test_brute_force_lazy_keys () =
  let comb =
    Generator.generate
      {
        Generator.gen_name = "bf20";
        seed = 52;
        n_pi = 8;
        n_po = 5;
        n_ff = 8;
        n_gates = 80;
        depth = 8;
        ff_depth_bias = 0.2;
      }
    |> Combinationalize.run |> fst
  in
  let lk = Xor_lock.lock ~seed:52 comb ~n_keys:20 in
  let major_words () = (Gc.quick_stat ()).Gc.major_words in
  let m0 = major_words () in
  let o =
    Attack.run
      ~budget:(Budget.create ~max_iterations:8 ())
      ~name:"brute" ~locked:lk.Locked.net ~key_inputs:lk.Locked.key_inputs
      ~oracle:(Oracle.of_netlist comb) ()
  in
  let major_mw = (major_words () -. m0) /. 1e6 in
  Alcotest.(check string) "verdict" "out_of_budget_iterations"
    (Attack.verdict_name o.Attack.verdict);
  Alcotest.(check int) "keys tested" 8 o.Attack.iterations;
  Alcotest.(check bool)
    (Printf.sprintf "major words %.1f Mw < 16 Mw" major_mw)
    true (major_mw < 16.)

(* ----- TCF two-frame ----- *)

let test_tcf_unroll () =
  let comb = comb_circuit 55 in
  let lk = Xor_lock.lock ~seed:55 comb ~n_keys:4 in
  let two = Tcf.unroll lk.Locked.net ~key_inputs:lk.Locked.key_inputs in
  let n_x = List.length (Netlist.inputs lk.Locked.net) - 4 in
  Alcotest.(check int) "inputs doubled (keys shared)"
    ((2 * n_x) + 4)
    (List.length (Netlist.inputs two));
  Alcotest.(check int) "outputs doubled"
    (2 * List.length (Netlist.outputs lk.Locked.net))
    (List.length (Netlist.outputs two))

(* An input that reaches no output is still a pin of each frame: a
   strict chip refuses a frame query that leaves it out. *)
let test_tcf_unused_input () =
  let s27 = fst (Combinationalize.run (Benchmarks.s27 ())) in
  ignore (Netlist.add_input s27 "unused_pi");
  let lk = Xor_lock.lock ~seed:5 s27 ~n_keys:4 in
  let two = Tcf.unroll lk.Locked.net ~key_inputs:lk.Locked.key_inputs in
  List.iter
    (fun pi ->
      Alcotest.(check bool) (pi ^ " kept") true (Netlist.find two pi <> None))
    [ "f0_unused_pi"; "f1_unused_pi" ];
  List.iter
    (fun name ->
      let o =
        Attack.run ~name ~locked:lk.Locked.net ~key_inputs:lk.Locked.key_inputs
          ~oracle:(Oracle.of_netlist s27) ()
      in
      Alcotest.(check string) (name ^ " verdict") "key_recovered"
        (Attack.verdict_name o.Attack.verdict))
    [ "sat"; "tcf2" ]

(* The unrolled attacks' chip adapter: [f] sees the X inputs in order,
   its reply is packed by output name (first duplicate wins), and a reply
   that lacks an output raises naming it. *)
let test_named_oracle () =
  let net = Netlist.create "n" in
  let a = Netlist.add_input net "a" in
  let k = Netlist.add_input net "k" in
  let b = Netlist.add_input net "b" in
  Netlist.add_output net "y" (Netlist.add_gate net Cell.Xor [| a; k |]);
  Netlist.add_output net "z" (Netlist.add_gate net Cell.And [| a; b |]);
  let seen = ref [] in
  let o =
    Dip_miter.named_oracle net ~key_inputs:[ "k" ] (fun q ->
        seen := q :: !seen;
        [ ("z", false); ("y", true); ("z", true) ])
  in
  Alcotest.(check (list string)) "X inputs" [ "a"; "b" ] (Oracle.input_names o);
  Alcotest.(check (list (pair string bool))) "reply by output name"
    [ ("y", true); ("z", false) ]
    (Oracle.query o [ ("b", true); ("a", false) ]);
  Alcotest.(check (list (list (pair string bool)))) "f sees the X inputs in order"
    [ [ ("a", false); ("b", true) ] ] !seen;
  let short = Dip_miter.named_oracle net ~key_inputs:[ "k" ] (fun _ -> [ ("y", true) ]) in
  Alcotest.check_raises "a missing output raises"
    (Invalid_argument "Dip_miter.io: the reply has no output z") (fun () ->
      ignore (Oracle.query short [ ("a", true); ("b", true) ]))

let test_tcf_recovers_xor () =
  let comb = comb_circuit 56 in
  let lk = Xor_lock.lock ~seed:56 comb ~n_keys:4 in
  let oracle = Oracle.of_netlist comb in
  let o =
    Tcf.exec ~budget:(sat_budget ()) ~locked:lk.Locked.net
      ~key_inputs:lk.Locked.key_inputs ~oracle ()
  in
  match o.Tcf.sat.Sat_attack.status with
  | Sat_attack.Key_recovered k ->
    Alcotest.(check bool) "functionally correct" true
      (Equiv.check ~fixed_b:k comb lk.Locked.net = Equiv.Equivalent)
  | Sat_attack.Unsat_at_first_iteration _ | Sat_attack.Budget_exhausted ->
    Alcotest.fail "two-frame attack should crack XOR locking"

(* Each DIP of the two-frame attack is two scalar queries on the chip,
   the capture frame's first ([f1], then [f0]); the chip sees no batch. *)
let test_tcf_chip_traffic () =
  let comb = comb_circuit 56 in
  let lk = Xor_lock.lock ~seed:56 comb ~n_keys:4 in
  let net = Oracle.of_netlist ~memo:false comb in
  let names = Oracle.input_names net in
  let log = ref [] in
  let chip =
    Oracle.of_packed ~memo:false ~name:"chip" ~inputs:names
      ~outputs:(Oracle.output_names net)
      ~batch:(fun qs ->
        log := `Batch :: !log;
        Oracle.query_packed net qs)
      (fun q ->
        log := `One q :: !log;
        (Oracle.query_packed net [| q |]).(0))
  in
  let o =
    Tcf.exec ~budget:(sat_budget ()) ~locked:lk.Locked.net
      ~key_inputs:lk.Locked.key_inputs ~oracle:chip ()
  in
  let frame tag dip =
    let names = Array.of_list names in
    `One (Bitpack.init (Array.length names) (fun i -> List.assoc (tag ^ "_" ^ names.(i)) dip))
  in
  let dips = o.Tcf.sat.Sat_attack.dips in
  Alcotest.(check bool) "some DIPs" true (dips <> []);
  Alcotest.(check bool) "f1 then f0 per DIP, scalar only" true
    (List.rev !log = List.concat_map (fun dip -> [ frame "f1" dip; frame "f0" dip ]) dips)

let test_tcf_fails_on_gk () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, keys = Insertion.strip_keygens d in
  let locked_comb, _ = Combinationalize.run stripped in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Oracle.of_netlist oracle_comb in
  let o =
    Tcf.exec ~budget:(sat_budget ()) ~locked:locked_comb ~key_inputs:keys
      ~oracle ()
  in
  Alcotest.(check bool) "still no DIP" true
    (match o.Tcf.sat.Sat_attack.status with
    | Sat_attack.Unsat_at_first_iteration _ -> true
    | Sat_attack.Key_recovered _ | Sat_attack.Budget_exhausted -> false)

(* ----- Enhanced removal ----- *)

let test_enhanced_locate_and_attack () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, _ = Insertion.strip_keygens d in
  let locked_comb, _ = Combinationalize.run stripped in
  let located = Enhanced_removal.locate locked_comb in
  Alcotest.(check int) "locates both GKs" 2 (List.length located);
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Oracle.of_netlist ~partial:true oracle_comb in
  let rm, o =
    Enhanced_removal.exec ~budget:(sat_budget ()) locked_comb ~oracle ()
  in
  (match o.Sat_attack.status with
  | Sat_attack.Key_recovered k ->
    Alcotest.(check int) "decrypts (paper V-D)" 0
      (Sat_attack.verify_key ~locked:rm.Enhanced_removal.net
         ~key_inputs:rm.Enhanced_removal.new_key_inputs ~oracle k)
  | Sat_attack.Unsat_at_first_iteration k ->
    (* zero-corruption case: any key works on the remodelled netlist *)
    Alcotest.(check int) "decrypts trivially" 0
      (Sat_attack.verify_key ~locked:rm.Enhanced_removal.net
         ~key_inputs:rm.Enhanced_removal.new_key_inputs ~oracle k)
  | Sat_attack.Budget_exhausted -> Alcotest.fail "attack exhausted")

(* The remodelled netlist drops the replaced GKs' key inputs, so its
   DIPs name only the chip's pins and a strict chip oracle answers them. *)
let test_enhanced_strict_oracle () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, keys = Insertion.strip_keygens d in
  let locked_comb, _ = Combinationalize.run stripped in
  let oracle_comb, _ = Combinationalize.run net in
  let o =
    Attack.run ~seed:3 ~name:"enhanced-removal" ~locked:locked_comb
      ~key_inputs:keys ~oracle:(Oracle.of_netlist oracle_comb) ()
  in
  Alcotest.(check string) "verdict" "key_recovered"
    (Attack.verdict_name o.Attack.verdict)

let test_enhanced_blinded_by_withholding () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, _ = Insertion.strip_keygens d in
  let locked_comb, _ = Combinationalize.run stripped in
  let hidden = Netlist.copy locked_comb in
  List.iter
    (fun gk ->
      let interior =
        List.filter (fun id -> id <> gk.Enhanced_removal.mux)
          gk.Enhanced_removal.branch_nodes
      in
      ignore (Withhold.absorb hidden ~root:gk.Enhanced_removal.mux ~interior))
    (Enhanced_removal.locate hidden);
  Alcotest.(check int) "locator blinded" 0
    (List.length (Enhanced_removal.locate hidden));
  Alcotest.(check bool) "search space" true
    (Enhanced_removal.withheld_search_space_log2 ~n_gks:8 ~lut_inputs:4 = 128.0)

(* ----- opt front-end verdict parity across the whole registry -----

   Attacking the {!Opt} twin of the locked netlist through an oracle
   over the twin of the chip must never change an attack's verdict: the
   strash/rewrite front-end preserves the pin interface and the
   function, so only the run's cost may differ.  Incidental payloads
   that depend on the exact CNF (the arbitrary model attached to
   [No_dip], mismatch sample counts) are allowed to differ; a verified
   key is not. *)

let opt_verdict_repr (o : Attack.outcome) =
  match o.Attack.verdict with
  | Attack.Key_recovered k -> "key_recovered: " ^ Key.to_string k
  | Attack.Gave_up r -> "gave_up: " ^ Attack.gave_up_reason_name r
  | v -> Attack.verdict_name v

let test_opt_verdict_parity () =
  let xor_ctx seed =
    let comb = comb_circuit seed in
    let lk = Xor_lock.lock ~seed comb ~n_keys:5 in
    ( "xor" ^ string_of_int seed,
      lk.Locked.net,
      lk.Locked.key_inputs,
      comb )
  in
  let gk_ctx =
    let net = Benchmarks.tiny () in
    let clock = Sta.clock_for net ~margin:4.5 in
    let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
    let stripped, keys = Insertion.strip_keygens d in
    let locked_comb, _ = Combinationalize.run stripped in
    let oracle_comb, _ = Combinationalize.run net in
    ("gk-tiny", locked_comb, keys, oracle_comb)
  in
  List.iter
    (fun (cname, locked, key_inputs, chip) ->
      List.iter
        (fun (e : Attack.entry) ->
          let go optimize =
            let twin net = if optimize then fst (Opt.run net) else net in
            Attack.run ~seed:3 ~name:e.Attack.name ~locked:(twin locked)
              ~key_inputs
              ~oracle:(Oracle.of_netlist (twin chip))
              ()
          in
          let plain = go false in
          let opted = go true in
          Alcotest.(check string)
            (Printf.sprintf "%s on %s" e.Attack.name cname)
            (opt_verdict_repr plain) (opt_verdict_repr opted))
        Attack.registry)
    [ xor_ctx 50; gk_ctx ]

let suites =
  [
    ("attacks.oracle", [ tc "basics" `Quick test_oracle ]);
    ( "attacks.sat",
      [
        tc "budget" `Quick test_sat_attack_budget;
        tc "guards" `Quick test_sat_attack_guards;
        tc "sarlock ~2^n DIPs" `Slow test_sarlock_iteration_count;
        qcheck ~count:10 "recovers XOR keys" seed_arb sat_recovers_xor_law;
        qcheck ~count:10 "recovers MUX keys" seed_arb sat_recovers_mux_law;
        qcheck ~count:10 "GK: UNSAT at first DIP, key wrong on chip" seed_arb
          gk_unsat_at_first_law;
        tc "GK-8 on every benchmark: no DIP, leftover key corrupts" `Quick
          test_gk8_every_benchmark;
      ] );
    ( "attacks.signal_prob",
      [
        tc "basics" `Quick test_signal_prob_basics;
        tc "skew finds SARLock" `Quick test_signal_prob_skew_finds_sarlock;
      ] );
    ( "attacks.removal",
      [
        tc "kills Anti-SAT" `Quick test_removal_kills_antisat;
        tc "no handle on XOR" `Quick test_removal_fails_on_xor;
        tc "TDK strip + SAT" `Quick test_tdk_strip_then_sat;
        tc "GK guessing is exhaustive" `Quick test_guess_gk;
        qcheck ~count:8 "kills SARLock" seed_arb removal_kills_sarlock_law;
      ] );
    ( "attacks.brute_force",
      [
        tc "finds key" `Quick test_brute_force;
        tc "lazy key space under an 8-key budget" `Quick
          test_brute_force_lazy_keys;
      ] );
    ( "attacks.tcf",
      [
        tc "unroll structure" `Quick test_tcf_unroll;
        tc "cracks XOR" `Quick test_tcf_recovers_xor;
        tc "fails on GK" `Quick test_tcf_fails_on_gk;
        tc "two scalar chip queries per DIP" `Quick test_tcf_chip_traffic;
        tc "keeps an input that reaches no output" `Quick test_tcf_unused_input;
        tc "named_oracle packs replies by name" `Quick test_named_oracle;
      ] );
    ( "attacks.enhanced_removal",
      [
        tc "locate + remodel + SAT" `Quick test_enhanced_locate_and_attack;
        tc "strict chip oracle" `Quick test_enhanced_strict_oracle;
        tc "blinded by withholding" `Quick test_enhanced_blinded_by_withholding;
      ] );
    ( "attacks.opt_parity",
      [ tc "registry verdict parity under opt" `Slow test_opt_verdict_parity ]
    );
  ]
