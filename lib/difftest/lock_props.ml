type scheme = Xor | Mux | Fault | Sarlock | Antisat | Tdk | Gk | Hybrid

let all = [ Xor; Mux; Fault; Sarlock; Antisat; Tdk; Gk; Hybrid ]

let scheme_name = function
  | Xor -> "xor"
  | Mux -> "mux"
  | Fault -> "fault"
  | Sarlock -> "sarlock"
  | Antisat -> "antisat"
  | Tdk -> "tdk"
  | Gk -> "gk"
  | Hybrid -> "hybrid"

let scheme_of_name s = List.find_opt (fun x -> scheme_name x = s) all

let prop scheme = "prop:" ^ scheme_name scheme

let fail scheme signal detail =
  [ Diff_oracle.mismatch ~oracle:(prop scheme) ~detail signal ]

(* ----- shared circuits ----- *)

let seq_circuit ?(n_ff = 6) seed =
  Generator.generate
    {
      Generator.gen_name = Printf.sprintf "lp%d" seed;
      seed;
      n_pi = 6;
      n_po = 4;
      n_ff;
      n_gates = 30;
      depth = 5;
      ff_depth_bias = 0.2;
    }

let comb_circuit seed = fst (Combinationalize.run (seq_circuit seed))

(* ----- combinational schemes ----- *)

(* Correct key: SAT-equivalent to the original.  Wrong key: for the
   corrupting schemes, some single-bit flip shows a nonzero bit error
   rate; for the point-function schemes, a random wrong key is
   SAT-distinguishable. *)
let check_comb scheme ~seed =
  let comb = comb_circuit seed in
  let lk =
    match scheme with
    | Xor -> Xor_lock.lock ~seed comb ~n_keys:5
    | Mux -> Mux_lock.lock ~seed comb ~n_keys:5
    | Fault -> Fault_lock.lock ~seed ~samples:64 comb ~n_keys:5
    | Sarlock -> Sarlock.lock ~seed comb ~n_keys:4
    | Antisat -> Antisat.lock ~seed comb ~n:4
    | Tdk | Gk | Hybrid -> assert false
  in
  let transparent =
    match Equiv.check ~fixed_b:lk.Locked.correct_key comb lk.Locked.net with
    | Equiv.Equivalent -> []
    | Equiv.Different w ->
      fail scheme "<correct-key>"
        (Printf.sprintf "correct key not transparent (witness %s)"
           (String.concat ","
              (List.map (fun (n, v) -> Printf.sprintf "%s=%b" n v) w)))
  in
  let corrupting =
    match scheme with
    | Xor | Mux | Fault ->
      let corrupts =
        List.exists
          (fun name ->
            Metrics.bit_error_rate ~samples:128 ~seed ~reference:comb lk
              (Key.flip lk.Locked.correct_key name)
            > 0.)
          lk.Locked.key_inputs
      in
      if corrupts then []
      else
        fail scheme "<wrong-key>"
          "no single-bit key flip corrupts any output (BER = 0 for all)"
    | Sarlock | Antisat ->
      (* Anti-SAT's correct class is every key with KA = KB, so a
         uniformly wrong key is often still functionally correct; a
         single A-half flip is always distinguishable.  SARLock's
         correct key is unique, so any wrong key flips one pattern. *)
      let wrong =
        match scheme with
        | Antisat ->
          Key.flip lk.Locked.correct_key (List.hd lk.Locked.key_inputs)
        | _ -> Key.random_wrong ~seed lk.Locked.correct_key
      in
      (match Equiv.check ~fixed_b:wrong comb lk.Locked.net with
      | Equiv.Different _ -> []
      | Equiv.Equivalent ->
        fail scheme "<wrong-key>"
          "a wrong key is functionally transparent")
    | _ -> assert false
  in
  transparent @ corrupting

(* ----- TDK ----- *)

let check_tdk ~seed =
  let net = seq_circuit seed in
  let clock_ps = max (Sta.clock_for net ~margin:1.3) 2000 in
  match Tdk.lock ~seed net ~clock_ps ~n_sites:2 with
  | exception Invalid_argument _ -> [] (* no feasible site: skip *)
  | t ->
    let lk = t.Tdk.locked in
    (* zero-delay transparency with the correct key: the TDB reduces to
       a buffer chain, the functional XOR passes *)
    let fixed = Locked.with_key_fixed lk lk.Locked.correct_key in
    let comb_ref = fst (Combinationalize.run net) in
    let comb_fixed = fst (Combinationalize.run fixed) in
    let transparent =
      match Equiv.check comb_ref comb_fixed with
      | Equiv.Equivalent -> []
      | Equiv.Different _ ->
        fail Tdk "<correct-key>" "correct key not transparent (zero-delay)"
      | exception Invalid_argument msg -> fail Tdk "<correct-key>" msg
    in
    (* flipping a functional key bit is SAT-visible *)
    let func_corrupts =
      match t.Tdk.sites with
      | [] -> fail Tdk "<sites>" "lock returned no sites"
      | s :: _ -> (
        let wrong = Key.flip lk.Locked.correct_key s.Tdk.func_key in
        let comb_wrong =
          fst (Combinationalize.run (Locked.with_key_fixed lk wrong))
        in
        match Equiv.check comb_ref comb_wrong with
        | Equiv.Different _ -> []
        | Equiv.Equivalent ->
          fail Tdk "<wrong-key>" "functional key flip is transparent"
        | exception Invalid_argument msg -> fail Tdk "<wrong-key>" msg)
    in
    transparent @ func_corrupts

(* ----- GK ----- *)

(* Eq. 2 in isolation: a GK with random branch delays, its key driven by
   one rising or falling transition, must emit a pulse of exactly
   D_path + D_mux. *)
let check_gk_eq2 ~seed =
  let rng = Random.State.make [| seed; 0xe92 |] in
  let d_path_a_ps = 300 + Random.State.int rng 1200 in
  let d_path_b_ps = 300 + Random.State.int rng 1200 in
  let variant =
    if Random.State.bool rng then Gk.Invert_on_const else Gk.Buffer_on_const
  in
  let rising = Random.State.bool rng in
  let x_val = Random.State.bool rng in
  let net = Netlist.create "eq2" in
  let x = Netlist.add_input net "x" in
  let key = Netlist.add_input net "key" in
  let gk =
    Gk.insert net ~profile:`Custom ~name:"gk" ~x ~key ~variant ~d_path_a_ps
      ~d_path_b_ps ()
  in
  Netlist.add_output net "y" gk.Gk.out;
  let t0 = 4000 in
  let clock_ps = 16000 in
  let drive pi =
    if pi = x then Timing_sim.Const x_val
    else
      Timing_sim.Wave
        (Waveform.make
           ~initial:(if rising then Logic.F else Logic.T)
           [ (t0, if rising then Logic.T else Logic.F) ])
  in
  let r = Timing_sim.run ~drive net { Timing_sim.clock_ps; cycles = 1 } in
  let wave = Timing_sim.wave r gk.Gk.out in
  (* Eq. 2 counts the glitch from the key transition to the settled
     output: the pulse must open when the select flips (t0 + Dmux) and
     close at t0 + D_path + D_mux exactly. *)
  let expected =
    if rising then Gk.glitch_on_rise_ps gk else Gk.glitch_on_fall_ps gk
  in
  let pulses = Waveform.pulses ~max_width:(clock_ps / 2) wave ~until:clock_ps in
  let matches =
    List.exists
      (fun p ->
        p.Waveform.start_ps = t0 + gk.Gk.d_mux_ps
        && p.Waveform.stop_ps = t0 + expected)
      pulses
  in
  if matches then []
  else
    fail Gk "gk_mux"
      (Printf.sprintf
         "Eq.2 violated: expected a glitch over [%d,%d] ps on a %s key \
          (DA=%d DB=%d Dmux=%d), saw pulses [%s]"
         (t0 + gk.Gk.d_mux_ps) (t0 + expected)
         (if rising then "rising" else "falling")
         gk.Gk.d_path_a_ps gk.Gk.d_path_b_ps gk.Gk.d_mux_ps
         (String.concat ";"
            (List.map
               (fun p ->
                 Printf.sprintf "%d-%d" p.Waveform.start_ps p.Waveform.stop_ps)
               pulses)))

let gk_circuit seed =
  Generator.generate
    {
      Generator.gen_name = Printf.sprintf "gkp%d" seed;
      seed = seed + 1000;
      n_pi = 5;
      n_po = 4;
      n_ff = 6;
      n_gates = 30;
      depth = 6;
      ff_depth_bias = 0.2;
    }

let check_gk_design ~seed =
  let net = gk_circuit seed in
  let clock_ps = max (Sta.clock_for net ~margin:1.2) 2600 in
  match Insertion.lock ~seed net ~clock_ps ~n_gks:2 with
  | exception Invalid_argument _ -> [] (* no feasible sites: skip *)
  | d ->
    let cycles = 8 in
    let cfg = { Timing_sim.clock_ps; cycles } in
    let stim n = Stimuli.edge_aligned ~seed:(seed + 7) n ~clock_ps ~cycles in
    let base =
      Timing_sim.run ~drive:(stim net) ~captures_from:(fun _ -> 1) net cfg
    in
    let run_locked key =
      Timing_sim.run
        ~drive:(Insertion.timing_drive ~other:(stim d.Insertion.lnet) d key)
        ~captures_from:(Insertion.capture_policy d) d.Insertion.lnet cfg
    in
    let locked = run_locked d.Insertion.correct_key in
    let transparent =
      let mism, _ = Stimuli.po_agreement ~skip:0 base locked in
      if mism = 0 && locked.Timing_sim.violations = [] then []
      else
        fail Gk "<correct-key>"
          (Printf.sprintf
             "correct key: %d PO sample mismatches, %d capture violations"
             mism
             (List.length locked.Timing_sim.violations))
    in
    (* a wrong constant key degenerates the GK to its stable inverter:
       the locked flip-flop's first captured value must be the complement
       of the baseline's *)
    let sample_of sample_net r ff_name k =
      let rec go i =
        if i >= Array.length r.Timing_sim.ff_ids then None
        else
          let id = r.Timing_sim.ff_ids.(i) in
          if (Netlist.node sample_net id).Netlist.name = ff_name then
            Some r.Timing_sim.ff_samples.(i).(k)
          else go (i + 1)
      in
      go 0
    in
    let inversion =
      List.concat_map
        (fun p ->
          if p.Insertion.p_gk.Gk.variant <> Gk.Invert_on_const then []
          else
          let const_key =
            List.map
              (fun (name, b) ->
                if name = p.Insertion.p_k1_name || name = p.Insertion.p_k2_name
                then (name, false)
                else (name, b))
              d.Insertion.correct_key
          in
          let wrong = run_locked const_key in
          let ff_name =
            (Netlist.node d.Insertion.lnet p.Insertion.p_ff).Netlist.name
          in
          (* recorded sample k is edge k+1, and data FFs hold through
             edge 0, so the first real capture is recorded sample 0 —
             later samples already mix the corrupted state back in *)
          match
            ( sample_of net base ff_name 0,
              sample_of d.Insertion.lnet wrong ff_name 0 )
          with
          | Some bv, Some wv
            when (bv = Logic.T || bv = Logic.F) && (wv = Logic.T || wv = Logic.F)
            ->
            if Logic.equal wv (Logic.lnot bv) then []
            else
              fail Gk ff_name
                (Printf.sprintf
                   "constant wrong key should invert the first capture \
                    (base=%c locked=%c)"
                   (Logic.to_char bv) (Logic.to_char wv))
          | _ -> [])
        d.Insertion.placements
    in
    transparent @ inversion

let check_gk ~seed = check_gk_eq2 ~seed @ check_gk_design ~seed

(* ----- Hybrid ----- *)

let check_hybrid ~seed =
  let net = gk_circuit (seed + 5000) in
  let clock_ps = max (Sta.clock_for net ~margin:1.2) 2600 in
  match Hybrid.lock ~seed net ~clock_ps ~n_gks:1 ~n_xors:2 with
  | exception Invalid_argument _ -> []
  | h ->
    let d = h.Hybrid.design in
    let cycles = 8 in
    let cfg = { Timing_sim.clock_ps; cycles } in
    let stim n = Stimuli.edge_aligned ~seed:(seed + 9) n ~clock_ps ~cycles in
    let base =
      Timing_sim.run ~drive:(stim net) ~captures_from:(fun _ -> 1) net cfg
    in
    let locked =
      Timing_sim.run
        ~drive:
          (Insertion.timing_drive ~other:(stim d.Insertion.lnet) d
             h.Hybrid.all_correct_key)
        ~captures_from:(Insertion.capture_policy d) d.Insertion.lnet cfg
    in
    let mism, _ = Stimuli.po_agreement ~skip:0 base locked in
    if mism = 0 && locked.Timing_sim.violations = [] then []
    else
      fail Hybrid "<correct-key>"
        (Printf.sprintf
           "correct key: %d PO sample mismatches, %d capture violations" mism
           (List.length locked.Timing_sim.violations))

(* ----- opt transparency, per scheme ----- *)

(* The strash/rewrite front-end must be invisible to every locking
   scheme: the optimized locked netlist keeps every key input as a
   symbolic primary input (an unknown key is never folded away) and is
   SAT-equivalent to the original over all inputs, keys included.
   Sequential schemes are checked on the combinationalized view the
   attacks actually consume. *)
let locked_for_opt scheme ~seed =
  match scheme with
  | Xor | Mux | Fault | Sarlock | Antisat ->
    let comb = comb_circuit seed in
    let lk =
      match scheme with
      | Xor -> Xor_lock.lock ~seed comb ~n_keys:5
      | Mux -> Mux_lock.lock ~seed comb ~n_keys:5
      | Fault -> Fault_lock.lock ~seed ~samples:64 comb ~n_keys:5
      | Sarlock -> Sarlock.lock ~seed comb ~n_keys:4
      | _ -> Antisat.lock ~seed comb ~n:4
    in
    Some (lk.Locked.net, lk.Locked.key_inputs)
  | Tdk -> (
    let net = seq_circuit seed in
    let clock_ps = max (Sta.clock_for net ~margin:1.3) 2000 in
    match Tdk.lock ~seed net ~clock_ps ~n_sites:2 with
    | exception Invalid_argument _ -> None (* no feasible site: skip *)
    | t ->
      let lk = t.Tdk.locked in
      Some (fst (Combinationalize.run lk.Locked.net), lk.Locked.key_inputs))
  | Gk -> (
    let net = gk_circuit seed in
    let clock_ps = max (Sta.clock_for net ~margin:1.2) 2600 in
    match Insertion.lock ~seed net ~clock_ps ~n_gks:2 with
    | exception Invalid_argument _ -> None
    | d ->
      let stripped, keys = Insertion.strip_keygens d in
      Some (fst (Combinationalize.run stripped), keys))
  | Hybrid -> (
    let net = gk_circuit (seed + 5000) in
    let clock_ps = max (Sta.clock_for net ~margin:1.2) 2600 in
    match Hybrid.lock ~seed net ~clock_ps ~n_gks:1 ~n_xors:2 with
    | exception Invalid_argument _ -> None
    | h ->
      let stripped, _ = Insertion.strip_keygens h.Hybrid.design in
      let comb = fst (Combinationalize.run stripped) in
      let pis =
        List.map (fun id -> (Netlist.node comb id).Netlist.name)
          (Netlist.inputs comb)
      in
      (* GK keys surface as PIs only after the strip; take every key of
         the combined assignment that is a PI of the stripped view *)
      let keys =
        List.filter (fun k -> List.mem k pis)
          (List.map fst h.Hybrid.all_correct_key)
      in
      Some (comb, keys))

let check_opt scheme ~seed =
  match locked_for_opt scheme ~seed with
  | None -> []
  | Some (locked, key_inputs) -> (
    let opt, _stats = Opt.run locked in
    let pis =
      List.map (fun id -> (Netlist.node opt id).Netlist.name)
        (Netlist.inputs opt)
    in
    match List.filter (fun k -> not (List.mem k pis)) key_inputs with
    | _ :: _ as missing ->
      fail scheme "<opt>"
        ("opt folded away key inputs: " ^ String.concat "," missing)
    | [] -> (
      match Equiv.check locked opt with
      | Equiv.Equivalent -> []
      | Equiv.Different w ->
        fail scheme "<opt>"
          (Printf.sprintf "opt changed the locked function (witness %s)"
             (String.concat ","
                (List.map (fun (n, v) -> Printf.sprintf "%s=%b" n v) w)))
      | exception Invalid_argument msg -> fail scheme "<opt>" msg))

(* ----- attack resistance through the registry ----- *)

(* The attack side of each scheme's contract, driven through the one
   {!Attack} registry: conventional XOR/MUX locking must fall to the
   budgeted SAT attack (and report nonzero oracle telemetry), a stripped
   GK netlist must leave the very first DIP search UNSAT. *)
let check_attack scheme ~seed =
  match scheme with
  | Xor | Mux ->
    let comb = comb_circuit seed in
    let lk =
      match scheme with
      | Xor -> Xor_lock.lock ~seed comb ~n_keys:5
      | _ -> Mux_lock.lock ~seed comb ~n_keys:5
    in
    let o =
      Attack.run
        ~budget:(Budget.create ~max_iterations:256 ~deadline_s:60. ())
        ~seed ~name:"sat" ~locked:lk.Locked.net
        ~key_inputs:lk.Locked.key_inputs
        ~oracle:(Oracle.of_netlist comb)
        ()
    in
    if not (Attack.broken o.Attack.verdict) then
      fail scheme "<sat-attack>"
        (Printf.sprintf "budgeted SAT attack should break %s locking (%s)"
           (scheme_name scheme)
           (Attack.verdict_name o.Attack.verdict))
    else if o.Attack.queries <= 0 then
      fail scheme "<sat-attack>"
        "attack succeeded but reported zero oracle queries"
    else []
  | Gk -> (
    let net = gk_circuit seed in
    let clock_ps = max (Sta.clock_for net ~margin:1.2) 2600 in
    match Insertion.lock ~seed net ~clock_ps ~n_gks:2 with
    | exception Invalid_argument _ -> [] (* no feasible sites: skip *)
    | d -> (
      let stripped, keys = Insertion.strip_keygens d in
      let locked_comb, _ = Combinationalize.run stripped in
      let oracle_comb, _ = Combinationalize.run net in
      let o =
        Attack.run ~seed ~name:"sat" ~locked:locked_comb ~key_inputs:keys
          ~oracle:(Oracle.of_netlist oracle_comb)
          ()
      in
      match o.Attack.verdict with
      | Attack.No_dip _ -> []
      | v ->
        fail Gk "<sat-attack>"
          (Printf.sprintf
             "stripped GK netlist should be UNSAT at the first DIP (got %s)"
             (Attack.verdict_name v))))
  | Fault | Sarlock | Antisat | Tdk | Hybrid -> []

let check ~seed = function
  | (Xor | Mux | Fault | Sarlock | Antisat) as s ->
    check_comb s ~seed @ check_attack s ~seed @ check_opt s ~seed
  | Tdk -> check_tdk ~seed @ check_opt Tdk ~seed
  | Gk -> check_gk ~seed @ check_attack Gk ~seed @ check_opt Gk ~seed
  | Hybrid -> check_hybrid ~seed @ check_opt Hybrid ~seed
