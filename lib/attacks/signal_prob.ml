let estimate ?(samples = 2048) ?seed ?(fixed = []) net =
  if Netlist.ffs net <> [] then
    invalid_arg "Signal_prob.estimate: netlist must be combinational";
  let seed = match seed with Some s -> s | None -> Fuzz_seed.value () in
  let rng = Random.State.make [| seed; 0x5350 |] in
  let n = Netlist.num_nodes net in
  let ones = Array.make n 0 in
  let fixed_of = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace fixed_of k v) fixed;
  let eng = Netlist.Engine.get net in
  let srcs = Netlist.Engine.sources eng in
  let w = Netlist.Engine.word_bits in
  (* One engine pass evaluates a word of independent samples; the trailing
     partial word is masked off so exactly [samples] lanes are counted.
     Counting runs over the dense slot buffer and is scattered back to
     node-id indexing only once at the end. *)
  let scratch = Netlist.Engine.create_scratch eng in
  let slot_of = Netlist.Engine.slot_of_id eng in
  let n_slots = Netlist.Engine.n_slots eng in
  let slot_ones = Array.make n_slots 0 in
  let remaining = ref samples in
  while !remaining > 0 do
    let lanes = min w !remaining in
    let values =
      Netlist.Engine.eval_block ~scratch eng ~n_words:1 ~fill:(fun buf ->
          Array.iteri
            (fun i pi ->
              buf.(i) <-
                (match
                   Hashtbl.find_opt fixed_of (Netlist.node net pi).Netlist.name
                 with
                | Some true -> -1
                | Some false -> 0
                | None -> Netlist.Engine.random_word rng))
            srcs)
    in
    let mask = if lanes = w then -1 else (1 lsl lanes) - 1 in
    for s = 0 to n_slots - 1 do
      slot_ones.(s) <-
        slot_ones.(s) + Netlist.Engine.popcount (values.(s) land mask)
    done;
    remaining := !remaining - lanes
  done;
  for id = 0 to n - 1 do
    if slot_of.(id) >= 0 then ones.(id) <- slot_ones.(slot_of.(id))
  done;
  Array.map (fun c -> float_of_int c /. float_of_int samples) ones

let exact ?(max_inputs = 24) net =
  if Netlist.ffs net <> [] then
    invalid_arg "Signal_prob.exact: netlist must be combinational";
  let pis = Netlist.inputs net in
  if List.length pis > max_inputs then
    invalid_arg "Signal_prob.exact: too many primary inputs for exact analysis";
  let man = Bdd.manager ~nvars:(List.length pis) in
  let index = Hashtbl.create 16 in
  List.iteri (fun i pi -> Hashtbl.replace index pi i) pis;
  let bdds = Bdd.of_netlist man net ~var_of_input:(Hashtbl.find index) in
  Array.map (Bdd.prob man) bdds

let skewed ?(eps = 0.02) net probs =
  let fanouts = Netlist.fanout_table net in
  let candidates = ref [] in
  Array.iteri
    (fun id p ->
      let nd = Netlist.node net id in
      if
        Netlist.is_comb nd
        && fanouts.(id) <> []
        && (p <= eps || p >= 1.0 -. eps)
      then candidates := (id, p) :: !candidates)
    probs;
  List.sort
    (fun (_, a) (_, b) ->
      compare (min a (1.0 -. a)) (min b (1.0 -. b)))
    !candidates
