type behaviour = [ `Buffer | `Inverter | `Unknown ]

type verdict = {
  v_mux : int;
  v_ppo : string;
  v_behaviour : behaviour;
  v_agree_buffer : int;
  v_agree_inverter : int;
  v_samples : int;
}

let exec ?(samples = 64) ?seed ?(unknown = []) ~budget ~stripped_comb ~oracle
    () =
  if Netlist.ffs stripped_comb <> [] then
    invalid_arg "Scan_attack.exec: combinationalize the stripped netlist first";
  let seed = match seed with Some s -> s | None -> Fuzz_seed.value () in
  let located = Enhanced_removal.locate stripped_comb in
  let rng = Random.State.make [| seed; 0x5343 |] in
  let pis = Netlist.inputs stripped_comb in
  (* which pseudo-output each GK drives *)
  let ppo_of mux =
    List.find_map
      (fun (po, d) -> if d = mux then Some po else None)
      (Netlist.outputs stripped_comb)
  in
  let is_unknown = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace is_unknown n ()) unknown;
  let sample_inputs () =
    List.map
      (fun pi ->
        let name = (Netlist.node stripped_comb pi).Netlist.name in
        (* pins the attacker cannot drive on the chip are stuck at a
           guess; everything else (PIs, scan-loaded state) is exercised *)
        if Hashtbl.mem is_unknown name then (pi, name, false)
        else (pi, name, Random.State.bool rng))
      pis
  in
  let eng = Netlist.Engine.get stripped_comb in
  let w = Netlist.Engine.word_bits in
  let words = Array.make (Netlist.num_nodes stripped_comb) 0 in
  let slot_of = Netlist.Engine.slot_of_id eng in
  let scratch = Netlist.Engine.create_scratch eng in
  (* the chip cannot be asked about the stripped netlist's key pins —
     the undriveable-pin guess is exactly the partial-query escape *)
  let chip = Oracle.relax oracle in
  List.filter_map
    (fun gk ->
      match ppo_of gk.Enhanced_removal.mux with
      | None -> None
      | Some ppo ->
        Budget.tick budget;
        let assignments = ref [] in
        for _ = 1 to samples do
          assignments := sample_inputs () :: !assignments
        done;
        let assignments = Array.of_list (List.rev !assignments) in
        (* stripped-side x values: 63 sample lanes per engine pass *)
        let x_vals = Array.make samples false in
        let start = ref 0 in
        while !start < samples do
          let lanes = min w (samples - !start) in
          List.iter (fun pi -> words.(pi) <- 0) pis;
          for j = 0 to lanes - 1 do
            List.iter
              (fun (pi, _, v) ->
                if v then words.(pi) <- words.(pi) lor (1 lsl j))
              assignments.(!start + j)
          done;
          let values =
            Netlist.Engine.eval_block ~scratch eng ~n_words:1 ~fill:(fun buf ->
                Array.iteri
                  (fun i id -> buf.(i) <- words.(id))
                  (Netlist.Engine.sources eng))
          in
          let x = values.(slot_of.(gk.Enhanced_removal.x)) in
          for j = 0 to lanes - 1 do
            x_vals.(!start + j) <- (x lsr j) land 1 = 1
          done;
          start := !start + lanes
        done;
        let chips =
          Oracle.query_batch chip
            (Array.to_list
               (Array.map
                  (fun a -> List.map (fun (_, name, v) -> (name, v)) a)
                  assignments))
        in
        let agree_buf = ref 0 and agree_inv = ref 0 in
        List.iteri
          (fun i resp ->
            match List.assoc_opt ppo resp with
            | Some captured ->
              let x = x_vals.(i) in
              if captured = x then incr agree_buf;
              if captured = not x then incr agree_inv
            | None -> ())
          chips;
        let v_behaviour =
          if !agree_buf = samples then `Buffer
          else if !agree_inv = samples then `Inverter
          else `Unknown
        in
        Some
          {
            v_mux = gk.Enhanced_removal.mux;
            v_ppo = ppo;
            v_behaviour;
            v_agree_buffer = !agree_buf;
            v_agree_inverter = !agree_inv;
            v_samples = samples;
          })
    located

let decrypt ~stripped_comb verdicts =
  if
    verdicts = []
    || List.exists (fun v -> v.v_behaviour = `Unknown) verdicts
  then None
  else begin
    let net = Netlist.copy stripped_comb in
    let located = Enhanced_removal.locate net in
    List.iter
      (fun v ->
        match
          List.find_opt (fun g -> g.Enhanced_removal.mux = v.v_mux) located
        with
        | None -> ()
        | Some gk ->
          let repl =
            match v.v_behaviour with
            | `Buffer -> Netlist.add_gate net Cell.Buf [| gk.Enhanced_removal.x |]
            | `Inverter -> Netlist.add_gate net Cell.Not [| gk.Enhanced_removal.x |]
            | `Unknown -> assert false
          in
          Netlist.replace_uses net [ (v.v_mux, repl) ])
      verdicts;
    let cleaned, _ = Synth.optimize net in
    Some cleaned
  end
