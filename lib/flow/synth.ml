type report = {
  const_folded : int;
  buffers_collapsed : int;
  dead_removed : int;
}

(* Constant-fold one gate given the constant values of some fanins.
   Returns [`Const v], [`Wire id] (the gate degenerates to a fanin or its
   complement is not expressible, so only pure forwarding counts), or
   [`Keep fanins'] with neutral constant inputs dropped. *)
let fold_gate fn fanins const_of =
  let consts = Array.map const_of fanins in
  let dominated value = Array.exists (fun c -> c = Some value) consts in
  let live =
    Array.to_list fanins
    |> List.filteri (fun i _ -> consts.(i) = None)
  in
  let all_const =
    Array.for_all (fun c -> c <> None) consts
  in
  if all_const then begin
    let ins = Array.map (fun c -> Option.get c) consts in
    `Const (Cell.eval fn ins)
  end
  else
    match fn with
    | Cell.And when dominated false -> `Const false
    | Cell.Nand when dominated false -> `Const true
    | Cell.Or when dominated true -> `Const true
    | Cell.Nor when dominated true -> `Const false
    | Cell.And | Cell.Or -> (
      match live with
      | [ single ] when List.length live < Array.length fanins -> `Wire single
      | _ when List.length live < Array.length fanins ->
        `Keep (Array.of_list live)
      | _ -> `Unchanged)
    | Cell.Nand | Cell.Nor ->
      if List.length live < Array.length fanins && List.length live >= 2 then
        `Keep (Array.of_list live)
      else `Unchanged
    | Cell.Mux -> (
      match const_of fanins.(0) with
      | Some false -> `Wire fanins.(1)
      | Some true -> `Wire fanins.(2)
      | None ->
        if fanins.(1) = fanins.(2) then `Wire fanins.(1)
        else `Unchanged)
    | Cell.Buf -> (
      match const_of fanins.(0) with
      | Some v -> `Const v
      | None -> `Wire fanins.(0))
    | Cell.Not -> (
      match const_of fanins.(0) with
      | Some v -> `Const (not v)
      | None -> `Unchanged)
    | Cell.Xor | Cell.Xnor ->
      (* Constant inputs flip or keep the parity; drop them. *)
      let flips =
        Array.fold_left
          (fun acc c -> if c = Some true then not acc else acc)
          false consts
      in
      if List.length live < Array.length fanins then
        match live with
        | [] -> `Const (Cell.eval fn (Array.map Option.get consts))
        | _ when List.length live = 1 && not flips && fn = Cell.Xor ->
          `Wire (List.hd live)
        | _ -> `Unchanged (* polarity-changing folds need a NOT; skip *)
      else `Unchanged

let optimize ?(preserve = fun _ -> false) net =
  let net = Netlist.copy net in
  let const_folded = ref 0 and buffers_collapsed = ref 0 in
  let const_of id =
    match (Netlist.node net id).Netlist.kind with
    | Netlist.Const b -> Some b
    | Netlist.Input | Netlist.Gate _ | Netlist.Lut _ | Netlist.Ff
    | Netlist.Dead -> None
  in
  (* One forward pass in dependency order is enough to propagate constants
     all the way (fold results are visible to later nodes). *)
  List.iter
    (fun id ->
      if not (preserve id) then begin
        let nd = Netlist.node net id in
        match nd.Netlist.kind with
        | Netlist.Gate fn -> (
          match fold_gate fn nd.Netlist.fanins const_of with
          | `Const v ->
            let c = Netlist.add_const net v in
            Netlist.replace_uses net [ (id, c) ];
            incr const_folded
          | `Wire w ->
            Netlist.replace_uses net [ (id, w) ];
            incr buffers_collapsed
          | `Keep fanins' ->
            let cell = Cell_lib.bind fn (Array.length fanins') in
            let g =
              Netlist.add_gate net ~cell fn fanins'
            in
            Netlist.replace_uses net [ (id, g) ];
            incr const_folded
          | `Unchanged -> ())
        | Netlist.Input | Netlist.Const _ | Netlist.Lut _ | Netlist.Ff
        | Netlist.Dead -> ()
      end)
    (Netlist.comb_topo_order net);
  (* Dead sweep: anything unreachable from a PO or a FF D pin dies. *)
  let reachable = Array.make (Netlist.num_nodes net) false in
  let rec mark id =
    if not reachable.(id) then begin
      reachable.(id) <- true;
      Array.iter mark (Netlist.node net id).Netlist.fanins
    end
  in
  List.iter (fun (_, d) -> mark d) (Netlist.outputs net);
  List.iter mark (Netlist.ffs net);
  List.iter mark (Netlist.inputs net);
  let dead_removed = ref 0 in
  for id = 0 to Netlist.num_nodes net - 1 do
    let nd = Netlist.node net id in
    if
      (not reachable.(id))
      && (match nd.Netlist.kind with
         | Netlist.Gate _ | Netlist.Lut _ | Netlist.Ff -> true
         | Netlist.Input | Netlist.Const _ | Netlist.Dead -> false)
      && not (preserve id)
    then begin
      Netlist.kill net id;
      incr dead_removed
    end
  done;
  let net, _ = Netlist.compact net in
  Netlist.validate net;
  ( net,
    {
      const_folded = !const_folded;
      buffers_collapsed = !buffers_collapsed;
      dead_removed = !dead_removed;
    } )

let pp_report ppf r =
  Format.fprintf ppf "folded=%d collapsed=%d dead=%d" r.const_folded
    r.buffers_collapsed r.dead_removed
