type t = {
  net : Netlist.t;
  ff_ids : int array;
  (* dense flip-flop index: ff_slot.(node id) = position in ff_state, -1
     for every other node *)
  ff_slot : int array;
  ff_state : bool array;
}

let create ?(init = fun _ -> false) net =
  let ff_ids = Array.of_list (Netlist.ffs net) in
  let ff_slot = Array.make (max 1 (Netlist.num_nodes net)) (-1) in
  Array.iteri (fun i ff -> ff_slot.(ff) <- i) ff_ids;
  { net; ff_ids; ff_slot; ff_state = Array.map init ff_ids }

let netlist t = t.net

let state t =
  Array.to_list (Array.mapi (fun i ff -> (ff, t.ff_state.(i))) t.ff_ids)

let step t ~inputs =
  let values =
    Netlist.eval_comb t.net (fun id ->
        let s = if id < Array.length t.ff_slot then t.ff_slot.(id) else -1 in
        if s >= 0 then t.ff_state.(s) else inputs id)
  in
  Array.iteri
    (fun i ff -> t.ff_state.(i) <- values.((Netlist.node t.net ff).Netlist.fanins.(0)))
    t.ff_ids;
  values

let outputs_of net values =
  List.map (fun (po, driver) -> (po, values.(driver))) (Netlist.outputs net)

let run ?init net ~cycles ~stimulus =
  let sim = create ?init net in
  Array.init cycles (fun cycle ->
      outputs_of net (step sim ~inputs:(stimulus cycle)))

let run_batch ?(init = fun _ -> 0) net ~cycles ~stimulus =
  let eng = Netlist.Engine.get net in
  (* private scratch: run_batch may run inside a Parallel.map worker, so
     it must not share the engine-owned buffers with another domain *)
  let scratch = Netlist.Engine.create_scratch eng in
  let srcs = Netlist.Engine.sources eng in
  let slot_of = Netlist.Engine.slot_of_id eng in
  let ff_ids = Array.of_list (Netlist.ffs net) in
  let ff_slot = Array.make (max 1 (Netlist.num_nodes net)) (-1) in
  Array.iteri (fun i ff -> ff_slot.(ff) <- i) ff_ids;
  (* pre-resolved slot of each flip-flop's D pin and each output driver:
     the per-cycle loop never touches node records again *)
  let ff_d_slot =
    Array.map (fun ff -> slot_of.((Netlist.node net ff).Netlist.fanins.(0))) ff_ids
  in
  let out_slots =
    List.map (fun (po, d) -> (po, slot_of.(d))) (Netlist.outputs net)
  in
  let state = Array.map init ff_ids in
  Array.init cycles (fun cycle ->
      let values =
        Netlist.Engine.eval_block ~scratch eng ~n_words:1 ~fill:(fun buf ->
            Array.iteri
              (fun i id ->
                let s = ff_slot.(id) in
                buf.(i) <- (if s >= 0 then state.(s) else stimulus cycle id))
              srcs)
      in
      Array.iteri (fun i ds -> state.(i) <- values.(ds)) ff_d_slot;
      List.map (fun (po, s) -> (po, values.(s))) out_slots)

let comb_outputs net ~inputs =
  if Netlist.ffs net <> [] then
    invalid_arg "Cycle_sim.comb_outputs: netlist has flip-flops";
  outputs_of net (Netlist.eval_comb net inputs)

let comb_outputs_batch net ~inputs =
  if Netlist.ffs net <> [] then
    invalid_arg "Cycle_sim.comb_outputs_batch: netlist has flip-flops";
  let eng = Netlist.Engine.get net in
  let values =
    Netlist.Engine.eval_block ~scratch:(Netlist.Engine.create_scratch eng) eng
      ~n_words:1 ~fill:(fun buf ->
        Array.iteri
          (fun i id -> buf.(i) <- inputs id)
          (Netlist.Engine.sources eng))
  in
  let slot_of = Netlist.Engine.slot_of_id eng in
  List.map (fun (po, d) -> (po, values.(slot_of.(d)))) (Netlist.outputs net)
