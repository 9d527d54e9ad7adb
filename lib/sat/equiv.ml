type verdict = Equivalent | Different of (string * bool) list

let po_names net = List.map fst (Netlist.outputs net) |> List.sort compare

let check ?(fixed_a = []) ?(fixed_b = []) a b =
  if po_names a <> po_names b then
    invalid_arg "Equiv.check: primary-output name sets differ";
  let solver = Solver.create () in
  (* Shared PI variables by name. *)
  let shared_vars = Hashtbl.create 32 in
  let shared_names =
    List.filter_map
      (fun pi ->
        let name = (Netlist.node a pi).Netlist.name in
        match Netlist.find b name with
        | Some _ -> Some name
        | None -> None)
      (Netlist.inputs a)
  in
  List.iter
    (fun name -> Hashtbl.replace shared_vars name (Solver.new_var solver))
    shared_names;
  let shared_for net id =
    let nd = Netlist.node net id in
    if nd.Netlist.kind = Netlist.Input then
      Hashtbl.find_opt shared_vars nd.Netlist.name
    else None
  in
  let vars_a = Tseitin.encode solver a ~shared:(shared_for a) in
  let vars_b = Tseitin.encode solver b ~shared:(shared_for b) in
  let pin net vars (name, value) =
    match Netlist.find net name with
    | Some id when (Netlist.node net id).Netlist.kind = Netlist.Input ->
      ignore (Solver.add_clause solver [ Lit.make vars.(id) value ])
    | Some _ -> invalid_arg ("Equiv.check: " ^ name ^ " is not an input")
    | None -> invalid_arg ("Equiv.check: no input named " ^ name)
  in
  List.iter (pin a vars_a) fixed_a;
  List.iter (pin b vars_b) fixed_b;
  (* some output differs: the two drivers of each PO name, in a's order *)
  let drivers_b = Hashtbl.create 64 in
  List.iter
    (fun (po, d) -> if not (Hashtbl.mem drivers_b po) then Hashtbl.add drivers_b po d)
    (Netlist.outputs b);
  Tseitin.miter solver
    (List.map
       (fun (po, da) -> (vars_a.(da), vars_b.(Hashtbl.find drivers_b po)))
       (Netlist.outputs a));
  match Solver.solve solver with
  | Solver.Unsat -> Equivalent
  | Solver.Sat ->
    let witness =
      List.map
        (fun name -> (name, Solver.value solver (Hashtbl.find shared_vars name)))
        shared_names
    in
    Different witness
