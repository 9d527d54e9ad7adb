type outcome = {
  recovered : Key.assignment;
  unresolved : string list;
  patterns_used : int;
}

let exec ?(samples_other = 8) ?seed ~budget ~locked ~key_inputs ~oracle () =
  if Netlist.ffs locked <> [] then
    invalid_arg "Sensitization.run: locked netlist must be combinational";
  let seed = match seed with Some s -> s | None -> Fuzz_seed.value () in
  let rng = Random.State.make [| seed; 0x534e |] in
  let x_pis =
    List.filter
      (fun pi ->
        not (List.mem (Netlist.node locked pi).Netlist.name key_inputs))
      (Netlist.inputs locked)
  in
  let x_names =
    List.map (fun pi -> (Netlist.node locked pi).Netlist.name) x_pis
  in
  let patterns = ref 0 in
  (* attacker-side simulation of the locked netlist: free, not a chip
     query — it never counts against the oracle budget *)
  let locked_sim = Sat_attack.oracle_of_netlist locked in
  let attack_bit target =
    let others = List.filter (fun k -> k <> target) key_inputs in
    let samples =
      List.init samples_other (fun _ ->
          List.map (fun k -> (k, Random.State.bool rng)) others)
    in
    (* One solver: shared X; for each sample j, two circuit copies with
       target = 0 / 1, other keys pinned to the sample; each pair must
       disagree on at least one output. *)
    let solver = Solver.create () in
    let x_vars = Hashtbl.create 32 in
    List.iter (fun n -> Hashtbl.replace x_vars n (Solver.new_var solver)) x_names;
    let copy sample target_value =
      let shared id =
        let nd = Netlist.node locked id in
        if nd.Netlist.kind = Netlist.Input then
          Hashtbl.find_opt x_vars nd.Netlist.name
        else None
      in
      let vars = Tseitin.encode solver locked ~shared in
      List.iter
        (fun (k, b) ->
          match Netlist.find locked k with
          | Some id -> ignore (Solver.add_clause solver [ Lit.make vars.(id) b ])
          | None -> ())
        ((target, target_value) :: sample);
      vars
    in
    List.iter
      (fun sample ->
        let v0 = copy sample false and v1 = copy sample true in
        Tseitin.miter solver
          (List.map (fun (_, d) -> (v0.(d), v1.(d))) (Netlist.outputs locked)))
      samples;
    match Solver.solve solver with
    | Solver.Unsat -> None
    | Solver.Sat ->
      incr patterns;
      let dip =
        List.map (fun n -> (n, Solver.value solver (Hashtbl.find x_vars n))) x_names
      in
      let chip = Oracle.query oracle dip in
      (* Infer the bit from properly sensitized outputs: an output is
         trustworthy only if, at this input pattern, it flips with the
         target and is *independent of the other key bits* (same value
         across every sampled other-key vector, for both target values) —
         the classic muting requirement.  Outputs that interfere with
         other key-gates are discarded; if none survives, the bit is
         genuinely not sensitizable in isolation. *)
      let sims =
        List.map
          (fun sample ->
            let sim v = locked_sim (dip @ ((target, v) :: sample)) in
            (sim false, sim true))
          samples
      in
      let muted_pos =
        List.filter_map
          (fun (po, _) ->
            let v0s = List.map (fun (s0, _) -> List.assoc po s0) sims in
            let v1s = List.map (fun (_, s1) -> List.assoc po s1) sims in
            match (v0s, v1s) with
            | v0 :: r0, v1 :: r1
              when v0 <> v1
                   && List.for_all (( = ) v0) r0
                   && List.for_all (( = ) v1) r1 ->
              Some (po, v0, v1)
            | _, _ -> None)
          (Netlist.outputs locked
          |> List.map (fun (po, _) -> (po, ())))
      in
      (match muted_pos with
      | [] -> None
      | _ ->
        let implied =
          List.map
            (fun (po, v0, _v1) ->
              match List.assoc_opt po chip with
              | Some w -> Some (w <> v0)  (* true: target = 1 *)
              | None -> None)
            muted_pos
        in
        match List.filter_map Fun.id implied with
        | [] -> None
        | b :: rest when List.for_all (( = ) b) rest -> Some (target, b)
        | _ -> None)
  in
  let recovered = ref [] and unresolved = ref [] in
  List.iter
    (fun k ->
      Budget.tick budget;
      match attack_bit k with
      | Some bit -> recovered := bit :: !recovered
      | None -> unresolved := k :: !unresolved)
    key_inputs;
  {
    recovered = List.rev !recovered;
    unresolved = List.rev !unresolved;
    patterns_used = !patterns;
  }

let run ?samples_other ?seed ~locked ~key_inputs ~oracle () =
  exec ?samples_other ?seed
    ~budget:(Budget.unlimited ())
    ~locked ~key_inputs
    ~oracle:(Oracle.of_fn oracle)
    ()
