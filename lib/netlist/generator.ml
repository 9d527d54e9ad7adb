

type config = {
  gen_name : string;
  seed : int;
  n_pi : int;
  n_po : int;
  n_ff : int;
  n_gates : int;
  depth : int;
  ff_depth_bias : float;
}

(* Gate-function mix roughly matching a NAND-heavy mapped design. *)
let pick_fn rng =
  let r = Random.State.int rng 100 in
  if r < 28 then (Cell.Nand, 2)
  else if r < 42 then (Cell.Nor, 2)
  else if r < 52 then (Cell.And, 2)
  else if r < 60 then (Cell.Or, 2)
  else if r < 66 then (Cell.Xor, 2)
  else if r < 70 then (Cell.Xnor, 2)
  else if r < 84 then (Cell.Not, 1)
  else if r < 87 then (Cell.Buf, 1)
  else if r < 93 then (Cell.Nand, 3)
  else if r < 97 then (Cell.Nor, 3)
  else (Cell.And, 4)

(* Triangular-ish stage distribution: mapped circuits have more gates near
   the inputs than near the deep end. *)
let pick_stage rng depth =
  let a = Random.State.int rng depth and b = Random.State.int rng depth in
  1 + min a b

let generate cfg =
  if cfg.n_pi < 1 || cfg.n_gates < 1 || cfg.depth < 1 then
    invalid_arg "Generator.generate: need at least one input, gate and stage";
  let rng = Random.State.make [| cfg.seed; 0x6b67 |] in
  let net = Netlist.create cfg.gen_name in
  (* by_stage.(0) = sources (inputs, then flip-flops); by_stage.(s) =
     gates at stage s, in creation order *)
  let by_stage = Array.init (cfg.depth + 1) (fun _ -> Vec.create ()) in
  let sources = by_stage.(0) in
  for i = 0 to cfg.n_pi - 1 do
    Vec.push sources (Netlist.add_input net (Printf.sprintf "pi%d" i))
  done;
  (* Flip-flops are created up front with a placeholder D (patched below) so
     their Q outputs can feed the combinational cloud. *)
  let placeholder = if cfg.n_ff > 0 then Netlist.add_const net false else -1 in
  let ff_ids =
    Array.init cfg.n_ff (fun i ->
        let id = Netlist.add_ff net ~name:(Printf.sprintf "ff%d" i) placeholder in
        Vec.push sources id;
        id)
  in
  let stage_count s = Vec.length by_stage.(s) in
  (* Draws index the sources in declaration order and a gate stage from
     its newest gate back: every random choice below, and so every
     generated netlist, depends on this order. *)
  let member s k =
    let v = by_stage.(s) in
    if s = 0 then Vec.get v k else Vec.get v (Vec.length v - 1 - k)
  in
  let pick_from_below rng stage =
    (* Prefer the immediately shallower stage so the depth target is
       actually reached; fall back to any shallower node. *)
    let s =
      if stage > 1 && Random.State.int rng 100 < 82 then stage - 1
      else Random.State.int rng stage
    in
    let s = if stage_count s = 0 then 0 else s in
    member s (Random.State.int rng (stage_count s))
  in
  let unused_sources = Queue.create () in
  Vec.iter (fun id -> Queue.push id unused_sources) sources;
  (* Draw every gate's stage up front and create shallow stages first, so
     a deep gate always finds its stage-(s-1) bucket populated and the
     depth target is actually realized. *)
  let plan =
    Array.init cfg.n_gates (fun _ ->
        let fn, arity = pick_fn rng in
        (pick_stage rng cfg.depth, fn, arity))
  in
  Array.sort (fun (a, _, _) (b, _, _) -> compare a b) plan;
  for g = 0 to cfg.n_gates - 1 do
    let stage, fn, arity = plan.(g) in
    let fanins =
      Array.init arity (fun pin ->
          (* Drain the pool of not-yet-used sources so no input or
             flip-flop output dangles; multi-input gates keep their other
             pins on the stage structure so depth is unaffected. *)
          if pin = 0 && arity > 1 && not (Queue.is_empty unused_sources) then
            Queue.pop unused_sources
          else pick_from_below rng stage)
    in
    (* Binary XOR/XNOR and wide gates must not repeat a fanin or the gate
       collapses to a constant/buffer; retry the duplicates. *)
    let rec dedup tries =
      let seen = Hashtbl.create 4 in
      let dup = ref false in
      Array.iteri
        (fun pin f ->
          if Hashtbl.mem seen f then begin
            dup := true;
            if tries < 8 then fanins.(pin) <- pick_from_below rng stage
          end
          else Hashtbl.replace seen f ())
        fanins;
      if !dup && tries < 8 then dedup (tries + 1)
    in
    if arity > 1 then dedup 0;
    let id = Netlist.add_gate net ~name:(Printf.sprintf "g%d" g) fn fanins in
    Vec.push by_stage.(stage) id
  done;
  (* Sample a node at a stage drawn from [lo..hi] (clamped to non-empty). *)
  let sample_at_depth frac =
    let target = int_of_float (frac *. float_of_int cfg.depth) in
    let target = max 1 (min cfg.depth target) in
    let rec find s step =
      if s >= 1 && s <= cfg.depth && stage_count s > 0 then s
      else if step > cfg.depth then 0
      else
        let next = if step mod 2 = 0 then s + step else s - step in
        find next (step + 1)
    in
    let s = find target 1 in
    member s (Random.State.int rng (stage_count s))
  in
  (* Patch flip-flop D pins: depth of the sampled driver controls the FF's
     arrival time, hence its GK feasibility. *)
  Array.iter
    (fun ff ->
      let u = Random.State.float rng 1.0 in
      let frac = u +. (cfg.ff_depth_bias *. (1.0 -. u)) in
      let d = sample_at_depth frac in
      Netlist.set_fanin net ~node_id:ff ~pin:0 ~driver:d)
    ff_ids;
  (* Primary outputs sample the deeper half of the cloud. *)
  for i = 0 to cfg.n_po - 1 do
    let d = sample_at_depth (0.5 +. Random.State.float rng 0.5) in
    Netlist.add_output net (Printf.sprintf "po%d" i) d
  done;
  (* Liveness pass: mapped designs carry no dead logic, and dead gates
     would hide locking corruption from the outputs.  Attach every
     fanout-free gate as an extra fanin of a deeper variadic gate
     (deepest stages first, so one sweep converges); gates at the deep
     end with no consumer left become extra primary outputs. *)
  let widenable id =
    match (Netlist.node net id).Netlist.kind with
    | Netlist.Gate (Cell.And | Cell.Or | Cell.Nand | Cell.Nor | Cell.Xor | Cell.Xnor)
      -> Array.length (Netlist.node net id).Netlist.fanins < 4
    | Netlist.Gate (Cell.Not | Cell.Buf | Cell.Mux)
    | Netlist.Input | Netlist.Const _ | Netlist.Lut _ | Netlist.Ff
    | Netlist.Dead -> false
  in
  let extra_pos = ref 0 in
  let fanout_count = Array.make (Netlist.num_nodes net) 0 in
  Array.iteri
    (fun id uses -> fanout_count.(id) <- List.length uses)
    (Netlist.fanout_table net);
  List.iter
    (fun (_, d) -> fanout_count.(d) <- fanout_count.(d) + 1)
    (Netlist.outputs net);
  (* A dead gate at stage [s] draws uniformly among the widenable gates
     of stages [s+1 .. depth], listed stage by stage in [member] order.
     Per-stage counts of widenable gates find the drawn stage without
     listing the candidates; only widening can change a gate's
     widenability, so the counts stay exact with one update per draw. *)
  let widenable_count =
    Array.init (cfg.depth + 1) (fun s ->
        Vec.fold (fun acc id -> if widenable id then acc + 1 else acc) 0 by_stage.(s))
  in
  (* the [j]-th widenable member of stage [s] *)
  let nth_widenable s j =
    let rec go k j =
      let id = member s k in
      if not (widenable id) then go (k + 1) j else if j = 0 then id else go (k + 1) (j - 1)
    in
    go 0 j
  in
  for s = cfg.depth downto 1 do
    for k = 0 to stage_count s - 1 do
      let id = member s k in
      if fanout_count.(id) = 0 then begin
        (* Only strictly deeper consumers are safe: two same-stage dead
           gates could otherwise adopt each other and form a cycle.
           Deep-end gates with no consumer left become extra POs. *)
        let candidates = ref 0 in
        for s' = s + 1 to cfg.depth do
          candidates := !candidates + widenable_count.(s')
        done;
        if !candidates = 0 then begin
          incr extra_pos;
          Netlist.add_output net (Printf.sprintf "pox%d" !extra_pos) id
        end
        else begin
          let rec locate s' j =
            if j < widenable_count.(s') then (s', nth_widenable s' j)
            else locate (s' + 1) (j - widenable_count.(s'))
          in
          let s', c = locate (s + 1) (Random.State.int rng !candidates) in
          Netlist.widen_gate net ~node_id:c ~extra_driver:id;
          if not (widenable c) then
            widenable_count.(s') <- widenable_count.(s') - 1
        end;
        fanout_count.(id) <- 1
      end
    done
  done;
  Netlist.validate net;
  net
