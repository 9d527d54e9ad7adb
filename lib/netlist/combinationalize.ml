type mapping = { ff_name : string; ppi : string; ppo : string }

let run net =
  let comb = Netlist.copy net in
  let ffs = Netlist.ffs comb in
  (* First give every FF's Q a pseudo-PI, then redirect all consumers —
     including other FFs' D pins and the FF's own D on a self-loop — in
     one pass.  The pseudo-PIs are fresh inputs, never flip-flops, so the
     one pass equals one redirect per flip-flop. *)
  let with_ppis =
    List.map
      (fun ff ->
        let ff_name = (Netlist.node comb ff).Netlist.name in
        let ppi = "ppi_" ^ ff_name in
        (ff, ff_name, ppi, Netlist.add_input comb ppi))
      ffs
  in
  Netlist.replace_uses comb (List.map (fun (ff, _, _, pi) -> (ff, pi)) with_ppis);
  (* Now every FF's D fanin already points past FF boundaries; expose it. *)
  let mappings =
    List.map
      (fun (ff, ff_name, ppi, _) ->
        let d = (Netlist.node comb ff).Netlist.fanins.(0) in
        let ppo = "ppo_" ^ ff_name in
        Netlist.add_output comb ppo d;
        { ff_name; ppi; ppo })
      with_ppis
  in
  List.iter (fun ff -> Netlist.kill comb ff) ffs;
  let comb, _remap = Netlist.compact comb in
  Netlist.validate comb;
  (comb, mappings)
