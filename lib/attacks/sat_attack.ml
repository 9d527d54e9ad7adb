type status =
  | Key_recovered of Key.assignment
  | Unsat_at_first_iteration of Key.assignment
  | Budget_exhausted

type outcome = {
  status : status;
  iterations : int;
  dips : (string * bool) list list;
  conflicts : int;
}

let exec ~budget ~locked ~key_inputs ~oracle () =
  if Netlist.ffs locked <> [] then
    invalid_arg "Sat_attack.exec: locked netlist must be combinational";
  List.iter
    (fun k ->
      match Netlist.find locked k with
      | Some id when (Netlist.node locked id).Netlist.kind = Netlist.Input -> ()
      | Some _ -> invalid_arg ("Sat_attack.exec: " ^ k ^ " is not an input")
      | None -> invalid_arg ("Sat_attack.exec: no key input " ^ k))
    key_inputs;
  (* An already-expired budget (deadline_s <= 0) yields a structured
     Budget_exhausted before any encoding, solving or oracle work. *)
  match Budget.check budget with
  | exception Budget.Exhausted _ ->
    { status = Budget_exhausted; iterations = 0; dips = []; conflicts = 0 }
  | () ->
  let m = Dip_miter.create locked ~key_inputs in
  (* latest first *)
  let dips = ref [] in
  let extract_key () =
    match Dip_miter.key m with
    | Some key -> key
    | None ->
      (* Impossible unless the oracle is inconsistent with the netlist. *)
      List.map (fun k -> (k, false)) key_inputs
  in
  let finish status iter =
    { status; iterations = iter; dips = List.rev !dips; conflicts = Dip_miter.conflicts m }
  in
  let rec loop iter =
    Budget.check budget;
    match Dip_miter.solve m ~iter with
    | Solver.Unsat ->
      let key = extract_key () in
      let status =
        if iter = 0 then Unsat_at_first_iteration key else Key_recovered key
      in
      finish status iter
    | Solver.Sat ->
      (* charge the iteration only once a DIP exists, so the iteration
         count always equals the number of DIPs consumed.  The span is
         opened only after a successful tick and closed before the
         recursive call, so attack.iteration spans in a trace count the
         charged iterations exactly (no nesting, no span for a tick
         that tripped the budget). *)
      Budget.tick budget;
      Dip_miter.iteration m
        ~args:[ ("iter", Cjson.Int iter); ("dips", Cjson.Int (List.length !dips)) ]
        (fun () ->
          let dip = Dip_miter.dip m in
          dips := dip :: !dips;
          Dip_miter.constrain m (Dip_miter.io m dip (Oracle.query oracle dip)));
      loop (iter + 1)
  in
  (* On mid-iteration exhaustion the iteration was already charged
     (ticked) and its span emitted, so report Budget.iterations — keeps
     the outcome's count equal to both the budget telemetry and the
     number of attack.iteration spans in a trace. *)
  try loop 0
  with Budget.Exhausted _ -> finish Budget_exhausted (Budget.iterations budget)

let verify_key ?(samples = 64) ?seed ~locked ~key_inputs ~oracle key =
  let seed = match seed with Some s -> s | None -> Fuzz_seed.value () in
  (* the chip may expose pins the locked view lacks (and vice versa) —
     verification drives the pins it can name *)
  List.length
    (Sampler.mismatches
       ~rng:(Random.State.make [| seed; 0x5646 |])
       ~samples ~chip:(Oracle.relax oracle)
       ~candidate:(Oracle.of_netlist ~partial:true locked)
       ~drive:
         (List.map
            (fun pi -> (Netlist.node locked pi).Netlist.name)
            (Dip_miter.x_inputs locked ~key_inputs))
       ~fixed:key ~missing:true)
