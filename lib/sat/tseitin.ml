(* The encoders are written once against an abstract sink so the Solver and
   Cnf backends share the gate clauses. *)
type sink = { fresh : unit -> int; clause : Lit.t list -> unit }

(* ----- gate clause groups, shared by [encode_with] and [assert_io] ----- *)

(* [positive = false] inverts the output: NAND, NOR, XNOR. *)

(* o <-> a xor b. *)
let xor_clauses sink o a b positive =
  let oo = if positive then o else Lit.negate o in
  sink.clause [ Lit.negate oo; a; b ];
  sink.clause [ Lit.negate oo; Lit.negate a; Lit.negate b ];
  sink.clause [ oo; Lit.negate a; b ];
  sink.clause [ oo; a; Lit.negate b ]

(* o <-> AND(ins). *)
let and_clauses sink o ins positive =
  let oo = if positive then o else Lit.negate o in
  Array.iter (fun a -> sink.clause [ Lit.negate oo; a ]) ins;
  sink.clause (oo :: Array.to_list (Array.map Lit.negate ins))

(* o <-> OR(ins). *)
let or_clauses sink o ins positive =
  let oo = if positive then o else Lit.negate o in
  Array.iter (fun a -> sink.clause [ oo; Lit.negate a ]) ins;
  sink.clause (Lit.negate oo :: Array.to_list ins)

(* o <-> parity of two or more [ins], chained through fresh
   intermediates. *)
let parity_clauses sink o ins positive =
  let last = Array.length ins - 1 in
  let rec chain acc k =
    if k = last then acc
    else begin
      let t = Lit.pos (sink.fresh ()) in
      xor_clauses sink t acc ins.(k) true;
      chain t (k + 1)
    end
  in
  let acc = chain ins.(0) 1 in
  xor_clauses sink o acc ins.(last) positive

(* o <-> if s then b else a. *)
let mux_clauses sink o s a b =
  sink.clause [ s; Lit.negate a; o ];
  sink.clause [ s; a; Lit.negate o ];
  sink.clause [ Lit.negate s; Lit.negate b; o ];
  sink.clause [ Lit.negate s; b; Lit.negate o ]

(* o <-> truth.(row of ins), ins.(0) the least significant bit: one clause
   per row. *)
let lut_clauses sink o ins truth =
  Array.iteri
    (fun row out_val ->
      let body =
        List.mapi
          (fun i l -> if row land (1 lsl i) <> 0 then Lit.negate l else l)
          (Array.to_list ins)
      in
      sink.clause ((if out_val then o else Lit.negate o) :: body))
    truth

let reject_ffs net =
  if Netlist.ffs net <> [] then
    invalid_arg "Tseitin: netlist has flip-flops (combinationalize first)"

(* ----- full encoding ----- *)

let encode_with sink net ~shared =
  reject_ffs net;
  let n = Netlist.num_nodes net in
  let vars = Array.make n (-1) in
  (* nodes whose variable [shared] supplied: already constrained *)
  let supplied = Array.make n false in
  let var_of id =
    if vars.(id) >= 0 then vars.(id)
    else begin
      let v =
        match shared id with
        | Some v ->
          supplied.(id) <- true;
          v
        | None -> sink.fresh ()
      in
      vars.(id) <- v;
      v
    end
  in
  let encode_node id =
    let nd = Netlist.node net id in
    let o = Lit.pos (var_of id) in
    if not supplied.(id) then begin
      let ins = Array.map (fun f -> Lit.pos (var_of f)) nd.Netlist.fanins in
      match nd.Netlist.kind with
      | Netlist.Input -> ()
      | Netlist.Dead -> ()
      | Netlist.Const b -> sink.clause [ (if b then o else Lit.negate o) ]
      | Netlist.Ff -> assert false
      | Netlist.Gate fn -> (
        match fn with
        | Cell.Buf ->
          sink.clause [ Lit.negate o; ins.(0) ];
          sink.clause [ o; Lit.negate ins.(0) ]
        | Cell.Not ->
          sink.clause [ Lit.negate o; Lit.negate ins.(0) ];
          sink.clause [ o; ins.(0) ]
        | Cell.And -> and_clauses sink o ins true
        | Cell.Nand -> and_clauses sink o ins false
        | Cell.Or -> or_clauses sink o ins true
        | Cell.Nor -> or_clauses sink o ins false
        | Cell.Xor | Cell.Xnor -> parity_clauses sink o ins (fn = Cell.Xor)
        | Cell.Mux -> mux_clauses sink o ins.(0) ins.(1) ins.(2))
      | Netlist.Lut truth -> lut_clauses sink o ins truth
    end
  in
  (* Sources first (so shared vars bind), then gates in dependency order. *)
  for id = 0 to n - 1 do
    match (Netlist.node net id).Netlist.kind with
    | Netlist.Input | Netlist.Const _ ->
      ignore (var_of id);
      encode_node id
    | Netlist.Gate _ | Netlist.Lut _ | Netlist.Ff | Netlist.Dead -> ()
  done;
  List.iter encode_node (Netlist.comb_topo_order net);
  vars

let solver_sink solver =
  {
    fresh = (fun () -> Solver.new_var solver);
    clause = (fun c -> ignore (Solver.add_clause solver c));
  }

let encode solver net ~shared = encode_with (solver_sink solver) net ~shared

let miter ?guard solver pairs =
  let sink = solver_sink solver in
  let diffs =
    List.filter_map
      (fun (a, b) ->
        if a = b then None
        else begin
          let d = Lit.pos (Solver.new_var solver) in
          xor_clauses sink d (Lit.pos a) (Lit.pos b) true;
          Some d
        end)
      pairs
  in
  match guard with
  | None -> sink.clause diffs
  | Some g -> sink.clause (Lit.negate g :: diffs)

let encode_simple solver net = encode solver net ~shared:(fun _ -> None)

let to_cnf net =
  let cnf = Cnf.create () in
  let sink =
    { fresh = (fun () -> Cnf.new_var cnf); clause = Cnf.add_clause cnf }
  in
  let vars = encode_with sink net ~shared:(fun _ -> None) in
  (cnf, vars)

(* ----- I/O constraints, folded under the pattern's values ----- *)

(* Node values of the fold: 0 and 1 are known, [sym] depends on an input
   with no value (a key bit). *)
let sym = 2

type io_cone = {
  net : Netlist.t;
  eng : Netlist.Engine.engine;
  scratch : Netlist.Engine.scratch;
  slot : int array;  (* node id -> engine slot *)
  pinned_src : int array;  (* engine source index of each pinned input *)
  in_cone : bool array;
  free : int array;  (* the inputs with no value, by id *)
  cone : int array;  (* the cone's gates and LUTs, in topological order *)
  boundary : int array;  (* fanins of cone nodes outside the cone *)
  (* per node, written for the cone and its boundary only *)
  cv : int array;  (* the fold: 0, 1 or [sym] *)
  need : bool array;
  lit : int array;
}

let io_cone net ~pinned =
  reject_ffs net;
  let n = Netlist.num_nodes net in
  let is_pinned = Array.make n false in
  Array.iter
    (fun id ->
      if (Netlist.node net id).Netlist.kind <> Netlist.Input then
        invalid_arg "Tseitin.io_cone: a pinned node is not an input";
      is_pinned.(id) <- true)
    pinned;
  let free = List.filter (fun id -> not is_pinned.(id)) (Netlist.inputs net) in
  let in_cone = Array.make n false in
  List.iter (fun id -> in_cone.(id) <- true) free;
  let topo = Netlist.comb_topo_array net in
  Array.iter
    (fun id ->
      in_cone.(id) <- Array.exists (Array.get in_cone) (Netlist.node net id).Netlist.fanins)
    topo;
  let cone = Array.of_list (List.filter (Array.get in_cone) (Array.to_list topo)) in
  let on_boundary = Array.make n false in
  Array.iter
    (fun id ->
      Array.iter
        (fun f -> if not in_cone.(f) then on_boundary.(f) <- true)
        (Netlist.node net id).Netlist.fanins)
    cone;
  let eng = Netlist.Engine.get net in
  let src_of_id = Array.make n (-1) in
  Array.iteri (fun i id -> src_of_id.(id) <- i) (Netlist.Engine.sources eng);
  {
    net;
    eng;
    scratch = Netlist.Engine.create_scratch eng;
    slot = Netlist.Engine.slot_of_id eng;
    pinned_src = Array.map (Array.get src_of_id) pinned;
    in_cone;
    free = Array.of_list (List.sort compare free);
    cone;
    boundary = Array.of_list (List.filter (Array.get on_boundary) (List.init n Fun.id));
    cv = Array.make n sym;
    need = Array.make n false;
    lit = Array.make n (-1);
  }

let in_cone c id = c.in_cone.(id)

(* The rows of [truth] selected by the known fanins: the cofactor over
   the [sym] fanins, which it returns in fanin order. *)
let lut_cofactor cv fanins truth =
  let base = ref 0 and free = ref [] in
  Array.iteri
    (fun i f ->
      if cv.(f) = sym then free := i :: !free
      else if cv.(f) = 1 then base := !base lor (1 lsl i))
    fanins;
  let free = Array.of_list (List.rev !free) in
  let cof =
    Array.init
      (1 lsl Array.length free)
      (fun r ->
        let row = ref !base in
        Array.iteri
          (fun j i -> if r land (1 lsl j) <> 0 then row := !row lor (1 lsl i))
          free;
        truth.(!row))
  in
  (free, cof)

(* The value of gate [fn] over its fanins' values. *)
let fold_gate cv fn fanins =
  let has v = Array.exists (fun f -> cv.(f) = v) fanins in
  match fn with
  | Cell.Buf -> cv.(fanins.(0))
  | Cell.Not -> if cv.(fanins.(0)) = sym then sym else 1 - cv.(fanins.(0))
  | Cell.And | Cell.Nand | Cell.Or | Cell.Nor ->
    let ctrl = if fn = Cell.And || fn = Cell.Nand then 0 else 1 in
    let v = if has ctrl then ctrl else if has sym then sym else 1 - ctrl in
    if v = sym || fn = Cell.And || fn = Cell.Or then v else 1 - v
  | Cell.Xor | Cell.Xnor ->
    if has sym then sym
    else
      Array.fold_left (fun p f -> p lxor cv.(f)) (if fn = Cell.Xor then 0 else 1)
        fanins
  | Cell.Mux -> (
    let a = cv.(fanins.(1)) and b = cv.(fanins.(2)) in
    match cv.(fanins.(0)) with
    | 0 -> a
    | 1 -> b
    | _ -> if a = b then a else sym)

let fold_lut cv fanins truth =
  let _, cof = lut_cofactor cv fanins truth in
  if Array.for_all (( = ) cof.(0)) cof then Bool.to_int cof.(0) else sym

(* The fold of one pattern: the engine's values on the boundary, [sym] on
   the inputs with no value, then the cone in topological order.  Returns
   the engine's block, whose lane 0 holds every node outside the cone. *)
let fold c x =
  let blk =
    Netlist.Engine.eval_block ~scratch:c.scratch c.eng ~n_words:1 ~fill:(fun buf ->
        Array.iteri (fun i src -> if x.(i) then buf.(src) <- 1) c.pinned_src)
  in
  let cv = c.cv in
  Array.iter (fun id -> cv.(id) <- blk.(c.slot.(id)) land 1) c.boundary;
  Array.iter (fun id -> cv.(id) <- sym) c.free;
  Array.iter
    (fun id ->
      let nd = Netlist.node c.net id in
      cv.(id) <-
        (match nd.Netlist.kind with
        | Netlist.Gate fn -> fold_gate cv fn nd.Netlist.fanins
        | Netlist.Lut truth -> fold_lut cv nd.Netlist.fanins truth
        | Netlist.Input | Netlist.Const _ | Netlist.Ff | Netlist.Dead -> sym))
    c.cone;
  blk

(* One copy of a folded constraint: mark the [sym] nodes the [sym]
   outputs depend on, encode them over [shared] key bits, pin the
   outputs. *)
let encode_io sink c blk ~shared outputs =
  let cv = c.cv and need = c.need and lit = c.lit in
  let value d = if c.in_cone.(d) then cv.(d) else blk.(c.slot.(d)) land 1 in
  (* 1. Needed mark, in reverse: the [sym] fanins each [sym] output
     depends on; a MUX with a known select depends on the selected data
     pin only. *)
  Array.iter (fun id -> need.(id) <- false) c.free;
  Array.iter (fun id -> need.(id) <- false) c.cone;
  let mark f = if cv.(f) = sym then need.(f) <- true in
  Array.iter (fun (d, _) -> if value d = sym then need.(d) <- true) outputs;
  for i = Array.length c.cone - 1 downto 0 do
    let id = c.cone.(i) in
    if need.(id) then begin
      let nd = Netlist.node c.net id in
      let fanins = nd.Netlist.fanins in
      match nd.Netlist.kind with
      | Netlist.Gate Cell.Mux when cv.(fanins.(0)) <> sym ->
        mark fanins.(1 + cv.(fanins.(0)))
      | Netlist.Gate _ | Netlist.Lut _ | Netlist.Input | Netlist.Const _
      | Netlist.Ff | Netlist.Dead ->
        Array.iter mark fanins
    end
  done;
  (* 2. Forward encode of the needed nodes.  A node whose value is one
     [sym] fanin's, up to a sign, reuses that fanin's literal; the rest
     get a fresh variable and the gate's clauses over their [sym]
     fanins. *)
  let syms fanins =
    Array.of_list
      (List.filter_map
         (fun f -> if cv.(f) = sym then Some lit.(f) else None)
         (Array.to_list fanins))
  in
  let signed l keep = if keep then l else Lit.negate l in
  let gate emit =
    let o = Lit.pos (sink.fresh ()) in
    emit o;
    o
  in
  let encode_gate fn fanins =
    let l i = lit.(fanins.(i)) and c i = cv.(fanins.(i)) in
    match fn with
    | Cell.Buf -> l 0
    | Cell.Not -> Lit.negate (l 0)
    | Cell.And | Cell.Nand | Cell.Or | Cell.Nor -> (
      (* the known fanins are all non-controlling *)
      let positive = fn = Cell.And || fn = Cell.Or in
      match syms fanins with
      | [| a |] -> signed a positive
      | ins when fn = Cell.And || fn = Cell.Nand ->
        gate (fun o -> and_clauses sink o ins positive)
      | ins -> gate (fun o -> or_clauses sink o ins positive))
    | Cell.Xor | Cell.Xnor -> (
      let positive =
        Array.fold_left
          (fun p f -> if cv.(f) = 1 then not p else p)
          (fn = Cell.Xor) fanins
      in
      match syms fanins with
      | [| a |] -> signed a positive
      | ins -> gate (fun o -> parity_clauses sink o ins positive))
    | Cell.Mux -> (
      match (c 0, c 1, c 2) with
      | 0, _, _ -> l 1
      | 1, _, _ -> l 2
      | _, 0, 1 -> l 0
      | _, 1, 0 -> Lit.negate (l 0)
      | _, 0, _ -> gate (fun o -> and_clauses sink o [| l 0; l 2 |] true)
      | _, 1, _ -> gate (fun o -> or_clauses sink o [| Lit.negate (l 0); l 2 |] true)
      | _, _, 0 -> gate (fun o -> and_clauses sink o [| Lit.negate (l 0); l 1 |] true)
      | _, _, 1 -> gate (fun o -> or_clauses sink o [| l 0; l 1 |] true)
      | _ -> gate (fun o -> mux_clauses sink o (l 0) (l 1) (l 2)))
  in
  let encode_lut fanins truth =
    let free, cof = lut_cofactor cv fanins truth in
    let ins = Array.map (fun i -> lit.(fanins.(i))) free in
    match ins with
    | [| a |] -> signed a cof.(1)
    | _ -> gate (fun o -> lut_clauses sink o ins cof)
  in
  Array.iter
    (fun id ->
      if need.(id) then
        lit.(id) <- Lit.pos (match shared id with Some v -> v | None -> sink.fresh ()))
    c.free;
  Array.iter
    (fun id ->
      if need.(id) then begin
        let nd = Netlist.node c.net id in
        lit.(id) <-
          (match nd.Netlist.kind with
          | Netlist.Gate fn -> encode_gate fn nd.Netlist.fanins
          | Netlist.Lut truth -> encode_lut nd.Netlist.fanins truth
          | Netlist.Input | Netlist.Const _ | Netlist.Ff | Netlist.Dead ->
            assert false)
      end)
    c.cone;
  (* 3. One unit per [sym] output; a known output that disagrees makes
     the formula UNSAT. *)
  Array.iter
    (fun (d, y) ->
      let v = value d in
      if v = sym then sink.clause [ signed lit.(d) y ]
      else if v <> Bool.to_int y then sink.clause [])
    outputs

let assert_io solver c ~copies ~x ~outputs =
  if Array.length x <> Array.length c.pinned_src then
    invalid_arg "Tseitin.assert_io: one value per pinned input";
  let blk = fold c x in
  let sink = solver_sink solver in
  List.iter (fun shared -> encode_io sink c blk ~shared outputs) copies
