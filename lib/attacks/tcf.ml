let unroll locked ~key_inputs =
  if Netlist.ffs locked <> [] then
    invalid_arg "Tcf.unroll: locked netlist must be combinational";
  let is_key k = List.mem k key_inputs in
  let out = Netlist.create (Netlist.name locked ^ "_2frame") in
  let key_ids = Hashtbl.create 8 in
  List.iter
    (fun k -> Hashtbl.replace key_ids k (Netlist.add_input out k))
    key_inputs;
  let copy_frame tag =
    let map = Hashtbl.create 64 in
    let rec import id =
      match Hashtbl.find_opt map id with
      | Some id' -> id'
      | None ->
        let nd = Netlist.node locked id in
        let id' =
          match nd.Netlist.kind with
          | Netlist.Input ->
            if is_key nd.Netlist.name then Hashtbl.find key_ids nd.Netlist.name
            else Netlist.add_input out (tag ^ "_" ^ nd.Netlist.name)
          | Netlist.Const b -> Netlist.add_const out b
          | Netlist.Gate fn ->
            Netlist.add_gate out ?cell:nd.Netlist.cell fn
              (Array.map import nd.Netlist.fanins)
          | Netlist.Lut truth ->
            Netlist.add_lut out ~truth:(Array.copy truth)
              (Array.map import nd.Netlist.fanins)
          | Netlist.Ff | Netlist.Dead ->
            invalid_arg "Tcf.unroll: unexpected node"
        in
        Hashtbl.replace map id id';
        id'
    in
    List.iter
      (fun (po, d) -> Netlist.add_output out (tag ^ "_" ^ po) (import d))
      (Netlist.outputs locked)
  in
  copy_frame "f0";
  copy_frame "f1";
  Netlist.validate out;
  out

type outcome = { sat : Sat_attack.outcome; frame_inputs : int }

(* One unrolled query fans out into one chip query per frame. *)
let frame_oracle oracle =
  let strip_tag name = String.sub name 3 (String.length name - 3) in
  fun inputs ->
    let frame tag =
      let sub =
        List.filter_map
          (fun (n, v) ->
            if String.length n > 3 && String.sub n 0 3 = tag ^ "_" then
              Some (strip_tag n, v)
            else None)
          inputs
      in
      List.map (fun (po, v) -> (tag ^ "_" ^ po, v)) (Oracle.query oracle sub)
    in
    frame "f0" @ frame "f1"

let exec ~budget ~locked ~key_inputs ~oracle () =
  let two = unroll locked ~key_inputs in
  let sat =
    Sat_attack.exec ~budget ~locked:two ~key_inputs
      ~oracle:(Oracle.of_fn (frame_oracle oracle))
      ()
  in
  { sat; frame_inputs = List.length (Netlist.inputs two) }
