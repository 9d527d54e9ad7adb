type removal_outcome = {
  removed : int list;
  restored : Netlist.t option;
  candidates_tried : int;
  success : bool;
}

(* Sample-based oracle check of a candidate netlist: every input of the
   candidate, leftover key inputs included, is driven with random values.
   The chip is queried relaxed, since a restored netlist need not expose
   exactly the chip's pin list. *)
let agrees_with_oracle ?(samples = 128) ?seed net ~oracle =
  let seed = match seed with Some s -> s | None -> Fuzz_seed.value () in
  Sampler.mismatches
    ~rng:(Random.State.make [| seed; 0x524d |])
    ~samples ~chip:(Oracle.relax oracle) ~candidate:(Oracle.of_netlist net)
    ~drive:(List.map (fun pi -> (Netlist.node net pi).Netlist.name) (Netlist.inputs net))
    ~fixed:[] ~missing:false
  = []

let exec ?(samples = 128) ?(eps = 0.05) ?(max_candidates = 12) ?seed ~budget
    locked ~oracle =
  let probs = Signal_prob.estimate ?seed locked in
  let candidates = Signal_prob.skewed ~eps locked probs in
  let rec try_candidates tried = function
    | [] -> { removed = []; restored = None; candidates_tried = tried; success = false }
    | _ when tried >= max_candidates ->
      { removed = []; restored = None; candidates_tried = tried; success = false }
    | (id, p) :: rest ->
      Budget.tick budget;
      let attempt = Netlist.copy locked in
      let dominant = p >= 0.5 in
      let c = Netlist.add_const attempt dominant in
      Netlist.replace_uses attempt [ (id, c) ];
      Netlist.kill attempt id;
      let cleaned, _report = Synth.optimize attempt in
      if agrees_with_oracle ~samples ?seed cleaned ~oracle then
        {
          removed = [ id ];
          restored = Some cleaned;
          candidates_tried = tried + 1;
          success = true;
        }
      else try_candidates (tried + 1) rest
  in
  try_candidates 0 candidates

let strip_tdbs (tdk : Tdk.t) =
  let net = Netlist.copy tdk.Tdk.locked.Locked.net in
  List.iter
    (fun site ->
      (* Reconnect the functional key-gate (the TDB MUX's non-chain input)
         straight to the flip-flop and drop the chain. *)
      let mux = Netlist.node net site.Tdk.tdb_mux in
      let chain_last =
        match List.rev site.Tdk.tdb_nodes with
        | last :: _ -> last
        | [] -> -1
      in
      let direct =
        if mux.Netlist.fanins.(1) = chain_last then mux.Netlist.fanins.(2)
        else mux.Netlist.fanins.(1)
      in
      Netlist.replace_uses net [ (site.Tdk.tdb_mux, direct) ];
      Netlist.kill net site.Tdk.tdb_mux;
      List.iter (fun id -> Netlist.kill net id) site.Tdk.tdb_nodes;
      (* The delay key now feeds nothing. *)
      match Netlist.find net site.Tdk.delay_key with
      | Some id -> Netlist.kill net id
      | None -> ())
    tdk.Tdk.sites;
  let net, _ = Netlist.compact net in
  Netlist.validate net;
  let func_keys = List.map (fun s -> s.Tdk.func_key) tdk.Tdk.sites in
  {
    Locked.net;
    scheme = "tdk-stripped";
    key_inputs = func_keys;
    correct_key =
      List.filter
        (fun (k, _) -> List.mem k func_keys)
        tdk.Tdk.locked.Locked.correct_key;
  }

type gk_guess_outcome = {
  guesses_tried : int;
  total_guesses : int;
  recovered : Netlist.t option;
}

let guess_gk ?(samples = 128) ?seed ~budget stripped ~gks ~oracle =
  let seed = match seed with Some s -> s | None -> Fuzz_seed.value () in
  let n = List.length gks in
  if n > 20 then invalid_arg "Removal_attack.guess_gk: too many GKs to enumerate";
  let total = 1 lsl n in
  let rec try_guess g =
    if g >= total then { guesses_tried = total; total_guesses = total; recovered = None }
    else begin
      Budget.tick budget;
      let attempt = Netlist.copy stripped in
      List.iteri
        (fun i (out, x) ->
          let as_buffer = g land (1 lsl i) <> 0 in
          let repl =
            if as_buffer then
              Netlist.add_gate attempt Cell.Buf [| x |]
            else Netlist.add_gate attempt Cell.Not [| x |]
          in
          Netlist.replace_uses attempt [ (out, repl) ])
        gks;
      let cleaned, _ = Synth.optimize attempt in
      if agrees_with_oracle ~samples ~seed:(seed + g) cleaned ~oracle then
        { guesses_tried = g + 1; total_guesses = total; recovered = Some cleaned }
      else try_guess (g + 1)
    end
  in
  try_guess 0
