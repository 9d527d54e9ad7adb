type located_gk = {
  mux : int;
  key_net : int;
  x : int;
  branch_nodes : int list;
}

(* Follow a pure buffer/delay chain upstream; returns the chain's source
   and the nodes traversed. *)
let rec chase_buffers net id acc =
  let nd = Netlist.node net id in
  match nd.Netlist.kind with
  | Netlist.Gate Cell.Buf -> chase_buffers net nd.Netlist.fanins.(0) (id :: acc)
  | Netlist.Gate _ | Netlist.Lut _ | Netlist.Input | Netlist.Const _
  | Netlist.Ff | Netlist.Dead -> (id, acc)

let locate net =
  let found = ref [] in
  for id = 0 to Netlist.num_nodes net - 1 do
    let nd = Netlist.node net id in
    match nd.Netlist.kind with
    | Netlist.Gate Cell.Mux ->
      let sel = nd.Netlist.fanins.(0) in
      let upper = Netlist.node net nd.Netlist.fanins.(1) in
      let lower = Netlist.node net nd.Netlist.fanins.(2) in
      let branch node =
        (* An XNOR/XOR whose second input chases back to [sel]. *)
        match node.Netlist.kind with
        | Netlist.Gate (Cell.Xor | Cell.Xnor)
          when Array.length node.Netlist.fanins = 2 ->
          let a = node.Netlist.fanins.(0) and b = node.Netlist.fanins.(1) in
          let try_order x kd =
            let src, chain = chase_buffers net kd [] in
            if src = sel then Some (x, chain) else None
          in
          (match try_order a b with Some r -> Some r | None -> try_order b a)
        | Netlist.Gate _ | Netlist.Lut _ | Netlist.Input | Netlist.Const _
        | Netlist.Ff | Netlist.Dead -> None
      in
      (match (branch upper, branch lower) with
      | Some (x1, chain1), Some (x2, chain2) when x1 = x2 ->
        let kinds a =
          match (Netlist.node net a).Netlist.kind with
          | Netlist.Gate fn -> fn
          | Netlist.Input | Netlist.Const _ | Netlist.Lut _ | Netlist.Ff
          | Netlist.Dead -> Cell.Buf
        in
        let fns = (kinds upper.Netlist.id, kinds lower.Netlist.id) in
        if
          fns = (Cell.Xnor, Cell.Xor) || fns = (Cell.Xor, Cell.Xnor)
        then
          found :=
            {
              mux = id;
              key_net = sel;
              x = x1;
              branch_nodes =
                (upper.Netlist.id :: chain1) @ (lower.Netlist.id :: chain2);
            }
            :: !found
      | _, _ -> ())
    | Netlist.Input | Netlist.Const _ | Netlist.Gate _ | Netlist.Lut _
    | Netlist.Ff | Netlist.Dead -> ()
  done;
  List.rev !found

type remodelled = { net : Netlist.t; new_key_inputs : string list }

let remodel src located =
  let net = Netlist.copy src in
  let names =
    List.mapi
      (fun i gk ->
        let name = Printf.sprintf "erk%d" i in
        let k = Netlist.add_input net name in
        let repl =
          Netlist.add_gate net ~name:(Printf.sprintf "erk%d_gate" i) Cell.Xor
            [| gk.x; k |]
        in
        Netlist.replace_uses net ~old_id:gk.mux ~new_id:repl;
        Netlist.kill net gk.mux;
        (* The branches may be shared with nothing else; sweep what
           dangles. *)
        name)
      located
  in
  let swept, _ = Synth.optimize net in
  (* The replaced GKs' key inputs now feed nothing.  Drop them, as
     [Removal_attack.strip_tdbs] drops TDK delay keys: left in, the SAT
     attack would read them as primary inputs and send them to the
     chip, which has no such pins. *)
  let disconnected =
    List.filter_map
      (fun gk ->
        let src_id, _ = chase_buffers src gk.key_net [] in
        let nd = Netlist.node src src_id in
        if nd.Netlist.kind = Netlist.Input then Netlist.find swept nd.Netlist.name
        else None)
      located
  in
  let fanout = Netlist.fanout_table swept in
  let drivers = List.map snd (Netlist.outputs swept) in
  let dropped =
    List.filter
      (fun id -> fanout.(id) = [] && not (List.mem id drivers))
      (List.sort_uniq compare disconnected)
  in
  List.iter (Netlist.kill swept) dropped;
  let net = if dropped = [] then swept else fst (Netlist.compact swept) in
  { net; new_key_inputs = names }

let exec ~budget src ~oracle () =
  let located = locate src in
  let rm = remodel src located in
  let outcome =
    Sat_attack.exec ~budget ~locked:rm.net ~key_inputs:rm.new_key_inputs
      ~oracle ()
  in
  (rm, outcome)

let attack ?(max_iterations = 4096) src ~oracle =
  exec
    ~budget:(Budget.create ~max_iterations ())
    src
    ~oracle:(Oracle.of_fn oracle)
    ()

let withheld_search_space_log2 ~n_gks ~lut_inputs =
  float_of_int n_gks *. (2.0 ** float_of_int lut_inputs)
