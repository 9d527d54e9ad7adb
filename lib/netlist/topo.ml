let levels = Netlist.levels

let depth t =
  let lv = levels t in
  let at id = if id >= 0 then max 0 lv.(id) else 0 in
  let from_pos =
    List.fold_left (fun acc (_, d) -> max acc (at d)) 0 (Netlist.outputs t)
  in
  List.fold_left
    (fun acc ff -> max acc (at (Netlist.node t ff).fanins.(0)))
    from_pos (Netlist.ffs t)

(* Forward reachability across flip-flops: which primary outputs does
   [start] reach? *)
let output_cone t start =
  let n = Netlist.num_nodes t in
  let fanouts = Netlist.fanout_table t in
  let seen = Array.make n false in
  let queue = Queue.create () in
  Queue.push start queue;
  seen.(start) <- true;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    List.iter
      (fun (consumer, _pin) ->
        if not seen.(consumer) then begin
          seen.(consumer) <- true;
          Queue.push consumer queue
        end)
      fanouts.(id)
  done;
  List.filter_map
    (fun (po_name, driver) -> if seen.(driver) then Some po_name else None)
    (Netlist.outputs t)

let fanin_cone t id =
  let seen = Hashtbl.create 64 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      let nd = Netlist.node t id in
      if Netlist.is_comb nd then Array.iter visit nd.fanins
    end
  in
  visit id;
  Hashtbl.fold (fun id () acc -> id :: acc) seen []
  |> List.sort compare

(* Every node's combinational output cone at once, as a flat bitset
   over output positions: node [id]'s cone is the [words] ints from
   [id * words], output [i] at bit [i mod int_size] of word
   [i / int_size].  One reverse-topological pass: a gate's cone is final
   once every consumer has pushed into it (consumers come later in the
   topological order), and it then pushes itself into its gate, LUT and
   flip-flop fanins.  Flip-flops push nothing, so cones stop at D pins —
   a flip-flop's cone is what its Q reaches within one clock cycle. *)
let group_ffs_by_cone t =
  let outputs = Array.of_list (Netlist.outputs t) in
  let words = (Array.length outputs + Sys.int_size - 1) / Sys.int_size in
  let word id i = (id * words) + (i / Sys.int_size) and bit i = 1 lsl (i mod Sys.int_size) in
  let cones = Array.make (Netlist.num_nodes t * words) 0 in
  Array.iteri (fun i (_, d) -> cones.(word d i) <- cones.(word d i) lor bit i) outputs;
  let topo = Netlist.comb_topo_array t in
  for k = Array.length topo - 1 downto 0 do
    let g = topo.(k) in
    Array.iter
      (fun f ->
        match (Netlist.node t f).Netlist.kind with
        | Netlist.Gate _ | Netlist.Lut _ | Netlist.Ff ->
          for w = 0 to words - 1 do
            cones.((f * words) + w) <- cones.((f * words) + w) lor cones.((g * words) + w)
          done
        | Netlist.Input | Netlist.Const _ | Netlist.Dead -> ())
      (Netlist.node t g).Netlist.fanins
  done;
  (* output positions in name order: a cone's set bits, read in this
     order, are its names already sorted *)
  let by_name = Array.init (Array.length outputs) Fun.id in
  Array.sort (fun a b -> compare (fst outputs.(a)) (fst outputs.(b))) by_name;
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun ff ->
      let signature =
        Array.fold_right
          (fun i acc -> if cones.(word ff i) land bit i <> 0 then fst outputs.(i) :: acc else acc)
          by_name []
        |> String.concat "\x00"
      in
      let existing = Option.value (Hashtbl.find_opt buckets signature) ~default:[] in
      Hashtbl.replace buckets signature (ff :: existing))
    (Netlist.ffs t);
  Hashtbl.fold (fun _ ffs acc -> List.rev ffs :: acc) buckets []
  |> List.sort (fun a b -> compare (List.length b) (List.length a))
