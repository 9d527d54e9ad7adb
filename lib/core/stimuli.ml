let edge_aligned ?(seed = 1) net ~clock_ps ~cycles pi =
  let name = (Netlist.node net pi).Netlist.name in
  let rng = Random.State.make [| seed; Hashtbl.hash name; 0x5354 |] in
  let start = if Random.State.bool rng then Logic.T else Logic.F in
  let horizon = cycles * clock_ps in
  let rec transitions t v acc =
    if t > horizon then List.rev acc
    else begin
      let v' = if Random.State.bool rng then Logic.lnot v else v in
      let acc = if Logic.equal v v' then acc else (t, v') :: acc in
      transitions (t + clock_ps) v' acc
    end
  in
  let trans = transitions (clock_ps + Cell_lib.dff_clk2q_ps) start [] in
  Timing_sim.Wave (Waveform.make ~initial:start trans)

let cycle_inputs ?(seed = 1) net cycle pi =
  let name = (Netlist.node net pi).Netlist.name in
  Hashtbl.hash (seed, cycle, name) land 1 = 1

(* A name -> samples table over [bindings] in which the first binding of
   a name wins, as with [List.assoc_opt]. *)
let index bindings =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (name, v) -> if not (Hashtbl.mem t name) then Hashtbl.add t name v)
    bindings;
  t

let po_agreement ~skip a b =
  let mismatches = ref 0 and comparisons = ref 0 in
  let b_pos = index b.Timing_sim.po_samples in
  List.iter
    (fun (po, sa) ->
      match Hashtbl.find_opt b_pos po with
      | None -> ()
      | Some sb ->
        let n = min (Array.length sa) (Array.length sb) in
        for k = skip to n - 1 do
          incr comparisons;
          if not (Logic.equal sa.(k) sb.(k)) then incr mismatches
        done)
    a.Timing_sim.po_samples;
  (!mismatches, !comparisons)

let state_mismatches ~skip base_net base net r =
  let named n (r : Timing_sim.result) =
    Array.to_list
      (Array.mapi
         (fun i id -> ((Netlist.node n id).Netlist.name, r.Timing_sim.ff_samples.(i)))
         r.Timing_sim.ff_ids)
  in
  let got = index (named net r) in
  List.fold_left
    (fun acc (name, want) ->
      match Hashtbl.find_opt got name with
      | None -> acc
      | Some v ->
        let m = ref acc in
        Array.iteri (fun k b -> if k >= skip && not (Logic.equal b v.(k)) then incr m) want;
        !m)
    (fst (po_agreement ~skip base r))
    (named base_net base)
