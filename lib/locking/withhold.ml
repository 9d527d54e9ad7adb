type absorbed = {
  lut : int;
  lut_inputs : int list;
  hidden_nodes : int list;
}

let candidate_functions k = 2.0 ** (2.0 ** float_of_int k)

let absorb net ~root ~interior =
  let cone = root :: List.filter (fun id -> id <> root) interior in
  List.iter
    (fun id ->
      if not (Netlist.is_comb (Netlist.node net id)) then
        invalid_arg "Withhold.absorb: cone must be combinational")
    cone;
  let in_cone = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace in_cone id ()) cone;
  (* Interior nodes must be private to the cone. *)
  let fanouts = Netlist.fanout_table net in
  List.iter
    (fun id ->
      if id <> root then
        List.iter
          (fun (c, _) ->
            if not (Hashtbl.mem in_cone c) then
              invalid_arg
                (Printf.sprintf
                   "Withhold.absorb: node %s escapes the cone"
                   (Netlist.node net id).Netlist.name))
          fanouts.(id))
    cone;
  (* Boundary: fanins of cone nodes that are outside the cone. *)
  let boundary = ref [] in
  List.iter
    (fun id ->
      Array.iter
        (fun f ->
          if (not (Hashtbl.mem in_cone f)) && not (List.mem f !boundary) then
            boundary := f :: !boundary)
        (Netlist.node net id).Netlist.fanins)
    cone;
  let leaves = List.rev !boundary in
  let k = List.length leaves in
  if k = 0 || k > 6 then
    invalid_arg (Printf.sprintf "Withhold.absorb: boundary of %d inputs" k);
  (* Tabulate the cone's stable function over the boundary. *)
  let truth =
    Array.init (1 lsl k) (fun row ->
        let values = Hashtbl.create 16 in
        List.iteri
          (fun i leaf -> Hashtbl.replace values leaf (row land (1 lsl i) <> 0))
          leaves;
        let rec eval id =
          match Hashtbl.find_opt values id with
          | Some v -> v
          | None ->
            let nd = Netlist.node net id in
            let v =
              match nd.Netlist.kind with
              | Netlist.Gate fn -> Cell.eval fn (Array.map eval nd.Netlist.fanins)
              | Netlist.Lut tt ->
                let idx = ref 0 in
                Array.iteri
                  (fun i f -> if eval f then idx := !idx lor (1 lsl i))
                  nd.Netlist.fanins;
                tt.(!idx)
              | Netlist.Input | Netlist.Const _ | Netlist.Ff | Netlist.Dead ->
                invalid_arg "Withhold.absorb: unreachable boundary"
            in
            Hashtbl.replace values id v;
            v
        in
        eval root)
  in
  let lut =
    Netlist.add_lut net
      ~name:((Netlist.node net root).Netlist.name ^ "_lut")
      ~truth (Array.of_list leaves)
  in
  Netlist.replace_uses net [ (root, lut) ];
  List.iter (fun id -> Netlist.kill net id) cone;
  { lut; lut_inputs = leaves; hidden_nodes = cone }
