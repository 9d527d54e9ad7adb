type outcome = {
  key : Key.assignment;
  error_rate : float;
  dips : int;
  random_queries : int;
  exact : bool;
}

(* The DIP miter; the current best key is read from its solver with the
   miter clause switched off ([Dip_miter.key]) between iterations. *)
let exec ?(check_every = 4) ?(error_threshold = 0.01) ?(queries_per_check = 50)
    ?seed ~budget ~locked ~key_inputs ~oracle () =
  if Netlist.ffs locked <> [] then
    invalid_arg "Appsat.exec: locked netlist must be combinational";
  (* An already-expired budget (deadline_s <= 0) yields a structured
     pessimistic outcome before any encoding, solving or oracle work. *)
  match Budget.check budget with
  | exception Budget.Exhausted _ ->
    {
      key = List.map (fun k -> (k, false)) key_inputs;
      error_rate = 1.0;
      dips = 0;
      random_queries = 0;
      exact = false;
    }
  | () ->
  let seed = match seed with Some s -> s | None -> Fuzz_seed.value () in
  let rng = Random.State.make [| seed; 0x4150 |] in
  let m = Dip_miter.create locked ~key_inputs in
  let x_names = Dip_miter.x_names m in
  let add_io_constraint dip outs = Dip_miter.constrain m (Dip_miter.io m dip outs) in
  let locked_o = Oracle.of_netlist locked in
  let queries = ref 0 in
  (* estimate the error on a batch of random queries (one 63-lane engine
     pass per word on each side) and feed failing queries back as
     constraints; a batch counts once the chip has answered it *)
  let estimate key =
    Obs.Trace.with_span
      ~args:[ ("queries", Cjson.Int queries_per_check) ]
      "appsat.estimate"
    @@ fun () ->
    let failing =
      Sampler.mismatches ~rng ~samples:queries_per_check ~chip:oracle
        ~candidate:locked_o ~drive:x_names ~fixed:key ~missing:false
    in
    queries := !queries + queries_per_check;
    List.iter
      (fun sample ->
        let dip, reply = Lazy.force sample in
        add_io_constraint dip reply)
      failing;
    float_of_int (List.length failing) /. float_of_int queries_per_check
  in
  let fallback = List.map (fun k -> (k, false)) key_inputs in
  let exhausted dips =
    let key = Option.value (Dip_miter.key m) ~default:fallback in
    let error_rate =
      (* a deadline or query cap may already be spent: report the
         pessimistic bound rather than burn more budget *)
      match estimate key with
      | e -> e
      | exception Budget.Exhausted _ -> 1.0
    in
    { key; error_rate; dips; random_queries = !queries; exact = false }
  in
  let rec loop dips =
    Budget.check budget;
    match Dip_miter.solve m ~iter:dips with
    | Solver.Unsat ->
      let key = Option.value (Dip_miter.key m) ~default:fallback in
      { key; error_rate = 0.0; dips; random_queries = !queries; exact = true }
    | Solver.Sat ->
      (* charge the iteration only once a DIP exists (see Sat_attack);
         the span opens after a successful tick and closes before any
         recursion, so attack.iteration spans count charged iterations
         exactly *)
      Budget.tick budget;
      Dip_miter.iteration m
        ~args:[ ("iter", Cjson.Int dips); ("dips", Cjson.Int dips) ]
        (fun () ->
          let dip = Dip_miter.dip m in
          add_io_constraint dip (Oracle.query oracle dip));
      let dips = dips + 1 in
      if dips mod check_every = 0 then begin
        match Dip_miter.key m with
        | None -> loop dips
        | Some key ->
          let err = estimate key in
          if err <= error_threshold then
            { key; error_rate = err; dips; random_queries = !queries; exact = false }
          else loop dips
      end
      else loop dips
  in
  let start = Budget.iterations budget in
  try loop 0
  with Budget.Exhausted _ -> exhausted (Budget.iterations budget - start)
