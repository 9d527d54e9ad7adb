type t = {
  net : Netlist.t;
  scheme : string;
  key_inputs : string list;
  correct_key : Key.assignment;
}

let key_pi_ids t =
  List.map
    (fun name ->
      match Netlist.find t.net name with
      | Some id -> id
      | None -> failwith ("Locked.key_pi_ids: missing key input " ^ name))
    t.key_inputs

let with_key_fixed t key =
  let net = Netlist.copy t.net in
  Netlist.replace_uses net
    (List.map
       (fun name ->
         match (Netlist.find net name, List.assoc_opt name key) with
         | Some id, Some b -> (id, Netlist.add_const net b)
         | Some _, None -> invalid_arg ("Locked.with_key_fixed: key misses " ^ name)
         | None, _ -> failwith ("Locked.with_key_fixed: missing key input " ^ name))
       t.key_inputs);
  net

let splice_all_fanouts net ~target ~build =
  let fanouts = (Netlist.fanout_table net).(target) in
  let pos =
    List.filter_map
      (fun (po, d) -> if d = target then Some po else None)
      (Netlist.outputs net)
  in
  (* When the target node carries a primary-output name, the splice
     would leave OUTPUT(po) driven by the new gate while a node named
     [po] still exists — two definitions of the same wire once printed
     as .bench.  Move the target to a fresh internal name first. *)
  let tname = (Netlist.node net target).Netlist.name in
  if List.mem tname pos then begin
    let rec fresh i =
      let n = Printf.sprintf "%s_pre%s" tname
          (if i = 0 then "" else string_of_int i) in
      match Netlist.rename net target n with
      | () -> ()
      | exception Invalid_argument _ -> fresh (i + 1)
    in
    fresh 0
  end;
  let g = build () in
  List.iter
    (fun (consumer, pin) ->
      if consumer <> g then Netlist.set_fanin net ~node_id:consumer ~pin ~driver:g)
    fanouts;
  List.iter (fun po -> Netlist.set_output_driver net po g) pos;
  g

let gate_wires net =
  List.filter
    (fun id ->
      match (Netlist.node net id).Netlist.kind with
      | Netlist.Gate _ | Netlist.Lut _ | Netlist.Ff -> true
      | Netlist.Input | Netlist.Const _ | Netlist.Dead -> false)
    (List.init (Netlist.num_nodes net) Fun.id)

let pick_distinct rng k xs =
  let n = List.length xs in
  if k > n then invalid_arg "Locked.pick_distinct: not enough candidates";
  let arr = Array.of_list xs in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list (Array.sub arr 0 k)
