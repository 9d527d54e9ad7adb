type chain = {
  scan_in : string;
  scan_enable : string;
  scan_out : string;
  order : int list;
  scan_muxes : int list;
}

let insert src =
  let net = Netlist.copy src in
  let ffs = Netlist.ffs net in
  if ffs = [] then invalid_arg "Scan.insert: netlist has no flip-flops";
  let scan_in = Netlist.add_input net "scan_in" in
  let scan_enable = Netlist.add_input net "scan_enable" in
  let muxes = ref [] in
  let last =
    List.fold_left
      (fun prev ff ->
        let d = (Netlist.node net ff).Netlist.fanins.(0) in
        let m =
          Netlist.add_gate net
            ~name:(Printf.sprintf "scan_mux_%s" (Netlist.node net ff).Netlist.name)
            Cell.Mux
            [| scan_enable; d; prev |]
        in
        muxes := m :: !muxes;
        Netlist.set_fanin net ~node_id:ff ~pin:0 ~driver:m;
        ff)
      scan_in ffs
  in
  Netlist.add_output net "scan_out" last;
  Netlist.validate net;
  ( net,
    {
      scan_in = "scan_in";
      scan_enable = "scan_enable";
      scan_out = "scan_out";
      order = ffs;
      scan_muxes = List.rev !muxes;
    } )

let functional_view net chain =
  let view = Netlist.copy net in
  (match Netlist.find view chain.scan_enable with
  | Some se ->
    let c0 = Netlist.add_const view false in
    Netlist.replace_uses view [ (se, c0) ]
  | None -> invalid_arg "Scan.functional_view: no scan_enable");
  Netlist.remove_output view chain.scan_out;
  let cleaned, _ = Synth.optimize view in
  cleaned
