(* The I/O constraint encoder as it was before the key cone: one call
   per key vector, each folding the pattern's values over the whole
   netlist and then encoding the cone the outputs need.  A test-local
   reference for [Tseitin.assert_io]: the same variables, clauses and
   clause order, one copy per call. *)

type sink = { fresh : unit -> int; clause : Lit.t list -> unit }

let xor_clauses sink o a b positive =
  let oo = if positive then o else Lit.negate o in
  sink.clause [ Lit.negate oo; a; b ];
  sink.clause [ Lit.negate oo; Lit.negate a; Lit.negate b ];
  sink.clause [ oo; Lit.negate a; b ];
  sink.clause [ oo; a; Lit.negate b ]

let and_clauses sink o ins positive =
  let oo = if positive then o else Lit.negate o in
  Array.iter (fun a -> sink.clause [ Lit.negate oo; a ]) ins;
  sink.clause (oo :: Array.to_list (Array.map Lit.negate ins))

let or_clauses sink o ins positive =
  let oo = if positive then o else Lit.negate o in
  Array.iter (fun a -> sink.clause [ oo; Lit.negate a ]) ins;
  sink.clause (Lit.negate oo :: Array.to_list ins)

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

let mux_clauses sink o s a b =
  sink.clause [ s; Lit.negate a; o ];
  sink.clause [ s; a; Lit.negate o ];
  sink.clause [ Lit.negate s; Lit.negate b; o ];
  sink.clause [ Lit.negate s; b; Lit.negate o ]

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

let solver_sink solver =
  {
    fresh = (fun () -> Solver.new_var solver);
    clause = (fun c -> ignore (Solver.add_clause solver c));
  }

let sym = 2

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

let assert_io solver net ~shared ~inputs ~outputs =
  reject_ffs net;
  let sink = solver_sink solver in
  let n = Netlist.num_nodes net in
  let topo = Netlist.comb_topo_array net in
  let node id = Netlist.node net id in

  let cv =
    Array.init n (fun id ->
        match (node id).Netlist.kind with
        | Netlist.Const b -> Bool.to_int b
        | Netlist.Input | Netlist.Gate _ | Netlist.Lut _ | Netlist.Ff
        | Netlist.Dead ->
          sym)
  in
  Array.iter (fun (id, b) -> cv.(id) <- Bool.to_int b) inputs;
  Array.iter
    (fun id ->
      let nd = node id in
      cv.(id) <-
        (match nd.Netlist.kind with
        | Netlist.Gate fn -> fold_gate cv fn nd.Netlist.fanins
        | Netlist.Lut truth -> fold_lut cv nd.Netlist.fanins truth
        | Netlist.Input | Netlist.Const _ | Netlist.Ff | Netlist.Dead -> sym))
    topo;

  let need = Array.make n false in
  let mark f = if cv.(f) = sym then need.(f) <- true in
  Array.iter (fun (d, _) -> mark d) outputs;
  for i = Array.length topo - 1 downto 0 do
    let id = topo.(i) in
    if need.(id) then begin
      let nd = node id in
      let fanins = nd.Netlist.fanins in
      match nd.Netlist.kind with
      | Netlist.Gate Cell.Mux when cv.(fanins.(0)) <> sym ->
        mark fanins.(1 + cv.(fanins.(0)))
      | Netlist.Gate _ | Netlist.Lut _ | Netlist.Input | Netlist.Const _
      | Netlist.Ff | Netlist.Dead ->
        Array.iter mark fanins
    end
  done;

  let lit = Array.make n (-1) in
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
  for id = 0 to n - 1 do
    if need.(id) && (node id).Netlist.kind = Netlist.Input then
      lit.(id) <-
        Lit.pos (match shared id with Some v -> v | None -> sink.fresh ())
  done;
  Array.iter
    (fun id ->
      if need.(id) then begin
        let nd = node id in
        lit.(id) <-
          (match nd.Netlist.kind with
          | Netlist.Gate fn -> encode_gate fn nd.Netlist.fanins
          | Netlist.Lut truth -> encode_lut nd.Netlist.fanins truth
          | Netlist.Input | Netlist.Const _ | Netlist.Ff | Netlist.Dead ->
            assert false)
      end)
    topo;

  Array.iter
    (fun (d, y) ->
      if cv.(d) = sym then sink.clause [ signed lit.(d) y ]
      else if cv.(d) <> Bool.to_int y then sink.clause [])
    outputs
