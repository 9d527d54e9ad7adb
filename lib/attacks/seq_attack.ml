type outcome = {
  sat : Sat_attack.outcome;
  frames : int;
  unrolled_inputs : int;
}

let oracle_of_netlist net per_frame_inputs =
  let sim = Cycle_sim.create net in
  List.map
    (fun inputs ->
      let values =
        Cycle_sim.step sim ~inputs:(fun id ->
            match
              List.assoc_opt (Netlist.node net id).Netlist.name inputs
            with
            | Some b -> b
            | None -> false)
      in
      List.map (fun (po, d) -> (po, values.(d))) (Netlist.outputs net))
    per_frame_inputs

let frame_prefix i = Printf.sprintf "f%d_" i

let strip_prefix p s =
  let lp = String.length p in
  if String.length s > lp && String.sub s 0 lp = p then
    Some (String.sub s lp (String.length s - lp))
  else None

let exec ~budget ~k ~locked ~key_inputs ~oracle_step () =
  let is_key name = List.mem name key_inputs in
  let unrolled = Unroll.frames locked ~k ~share:is_key ~init:`Zero in
  let oracle flat_inputs =
    (* regroup the unrolled input assignment into per-frame assignments *)
    let per_frame =
      List.init k (fun i ->
          List.filter_map
            (fun (n, v) ->
              match strip_prefix (frame_prefix i) n with
              | Some base -> Some (base, v)
              | None -> None)
            flat_inputs)
    in
    let outs = oracle_step per_frame in
    List.concat
      (List.mapi
         (fun i frame_outs ->
           List.map (fun (po, v) -> (frame_prefix i ^ po, v)) frame_outs)
         outs)
  in
  let sat =
    Sat_attack.exec ~budget ~locked:unrolled ~key_inputs
      ~oracle:(Dip_miter.named_oracle unrolled ~key_inputs oracle) ()
  in
  {
    sat;
    frames = k;
    unrolled_inputs = List.length (Netlist.inputs unrolled);
  }
