(* Rebuild-with-remap optimization (see opt.mli).  One [pass] walks the
   original netlist in topological order and re-creates every live node
   through normalizing constructors over a fresh output netlist; [run]
   iterates passes to a fixpoint, because a rewrite can orphan a helper
   node that only the next pass's liveness walk removes. *)

type stats = {
  st_iters : int;
  st_nodes_before : int;
  st_nodes_after : int;
  st_gates_before : int;
  st_gates_after : int;
  st_merged : int;
  st_folded : int;
  st_rewritten : int;
  st_swept : int;
}

let reduction st =
  if st.st_gates_before = 0 then 0.
  else
    float_of_int (st.st_gates_before - st.st_gates_after)
    /. float_of_int st.st_gates_before

let pp_stats ppf st =
  Format.fprintf ppf
    "gates %d -> %d (%.1f%%), nodes %d -> %d, merged %d, folded %d, \
     rewritten %d, swept %d, %d pass%s"
    st.st_gates_before st.st_gates_after
    (100. *. reduction st)
    st.st_nodes_before st.st_nodes_after st.st_merged st.st_folded
    st.st_rewritten st.st_swept st.st_iters
    (if st.st_iters = 1 then "" else "es")

type builder = {
  o : Netlist.t;
  (* (tag, fanins, LUT truth) -> node id; commutative fanins are sorted
     before lookup, so equal subexpressions resolve to one node *)
  strash : (int * int array * string, int) Hashtbl.t;
  mutable merged : int;
  mutable folded : int;
  mutable rewritten : int;
}

let fn_tag : Cell.gate_fn -> int = function
  | Cell.Not -> 0
  | Cell.Buf -> 1
  | Cell.And -> 2
  | Cell.Or -> 3
  | Cell.Nand -> 4
  | Cell.Nor -> 5
  | Cell.Xor -> 6
  | Cell.Xnor -> 7
  | Cell.Mux -> 8

let lut_tag = 9

let const_val b id =
  match (Netlist.node b.o id).Netlist.kind with
  | Netlist.Const v -> Some v
  | _ -> None

let not_fanin b id =
  let nd = Netlist.node b.o id in
  match nd.Netlist.kind with
  | Netlist.Gate Cell.Not -> Some nd.Netlist.fanins.(0)
  | _ -> None

let mk_const b v = Netlist.add_const b.o v

let strash_gate b fn fanins =
  let key = (fn_tag fn, fanins, "") in
  match Hashtbl.find_opt b.strash key with
  | Some id ->
    b.merged <- b.merged + 1;
    id
  | None ->
    let id = Netlist.add_gate b.o fn fanins in
    Hashtbl.add b.strash key id;
    id

let mk_not b f =
  match const_val b f with
  | Some v ->
    b.folded <- b.folded + 1;
    mk_const b (not v)
  | None -> (
    match not_fanin b f with
    | Some g ->
      b.rewritten <- b.rewritten + 1;
      g
    | None -> strash_gate b Cell.Not [| f |])

(* And/Or with an optional output inversion (Nand/Nor): constant
   absorption, duplicate removal, complement detection, canonical fanin
   order. *)
let mk_andor b ~is_and ~inv fanins =
  let ident = is_and in
  (* And's identity element is 1, Or's is 0 *)
  let absorbed = ref false in
  let sigs =
    List.filter
      (fun f ->
        match const_val b f with
        | Some v ->
          b.folded <- b.folded + 1;
          if v <> ident then absorbed := true;
          false
        | None -> true)
      fanins
  in
  let finish id = if inv then mk_not b id else id in
  if !absorbed then finish (mk_const b (not ident))
  else begin
    let sorted = List.sort_uniq compare sigs in
    if List.length sorted < List.length sigs then
      b.rewritten <- b.rewritten + 1;
    let contradicts =
      List.exists
        (fun f ->
          match not_fanin b f with
          | Some g -> List.mem g sorted
          | None -> false)
        sorted
    in
    if contradicts then begin
      (* x together with (not x): And pins to 0, Or to 1 *)
      b.rewritten <- b.rewritten + 1;
      finish (mk_const b (not ident))
    end
    else
      match sorted with
      | [] -> finish (mk_const b ident)
      | [ f ] -> finish f
      | fs ->
        let fn =
          match (is_and, inv) with
          | true, false -> Cell.And
          | true, true -> Cell.Nand
          | false, false -> Cell.Or
          | false, true -> Cell.Nor
        in
        strash_gate b fn (Array.of_list fs)
  end

(* Xor with an optional output inversion (Xnor): constants fold into the
   inversion, even multiplicities cancel, and an (x, not x) pair
   contributes a constant 1. *)
let mk_xor b ~inv fanins =
  let inv = ref inv in
  let sigs =
    List.filter
      (fun f ->
        match const_val b f with
        | Some v ->
          b.folded <- b.folded + 1;
          if v then inv := not !inv;
          false
        | None -> true)
      fanins
  in
  let sorted = List.sort compare sigs in
  let rec parity acc = function
    | x :: y :: tl when x = y -> parity acc tl
    | x :: tl -> parity (x :: acc) tl
    | [] -> List.rev acc
  in
  let uniq = parity [] sorted in
  if List.length uniq < List.length sigs then b.rewritten <- b.rewritten + 1;
  let rec drop_compl fs =
    match
      List.find_opt
        (fun f ->
          match not_fanin b f with
          | Some g -> List.mem g fs
          | None -> false)
        fs
    with
    | Some f ->
      let g = match not_fanin b f with Some g -> g | None -> assert false in
      inv := not !inv;
      b.rewritten <- b.rewritten + 1;
      drop_compl (List.filter (fun x -> x <> f && x <> g) fs)
    | None -> fs
  in
  match drop_compl uniq with
  | [] -> mk_const b !inv
  | [ f ] -> if !inv then mk_not b f else f
  | fs -> strash_gate b (if !inv then Cell.Xnor else Cell.Xor) (Array.of_list fs)

(* Mux with fanins [sel; f0; f1], value = if sel then f1 else f0. *)
let rec mk_mux b ~sel ~f0 ~f1 =
  match const_val b sel with
  | Some v ->
    b.folded <- b.folded + 1;
    if v then f1 else f0
  | None ->
    if f0 = f1 then begin
      b.rewritten <- b.rewritten + 1;
      f0
    end
    else (
      match not_fanin b sel with
      | Some g ->
        (* normalize selector polarity: mux(not s, a, b) = mux(s, b, a) *)
        b.rewritten <- b.rewritten + 1;
        mk_mux b ~sel:g ~f0:f1 ~f1:f0
      | None -> (
        match (const_val b f0, const_val b f1) with
        | Some false, Some true ->
          b.rewritten <- b.rewritten + 1;
          sel
        | Some true, Some false ->
          b.rewritten <- b.rewritten + 1;
          mk_not b sel
        | Some false, None ->
          b.rewritten <- b.rewritten + 1;
          mk_andor b ~is_and:true ~inv:false [ sel; f1 ]
        | Some true, None ->
          b.rewritten <- b.rewritten + 1;
          mk_andor b ~is_and:false ~inv:false [ mk_not b sel; f1 ]
        | None, Some false ->
          b.rewritten <- b.rewritten + 1;
          mk_andor b ~is_and:true ~inv:false [ mk_not b sel; f0 ]
        | None, Some true ->
          b.rewritten <- b.rewritten + 1;
          mk_andor b ~is_and:false ~inv:false [ sel; f0 ]
        | Some _, Some _ ->
          (* equal constants are one shared node, caught by f0 = f1 *)
          assert false
        | None, None -> strash_gate b Cell.Mux [| sel; f0; f1 |]))

let truth_string truth =
  String.init (Array.length truth) (fun i -> if truth.(i) then '1' else '0')

let strash_lut b truth fanins =
  let key = (lut_tag, fanins, truth_string truth) in
  match Hashtbl.find_opt b.strash key with
  | Some id ->
    b.merged <- b.merged + 1;
    id
  | None ->
    let id = Netlist.add_lut b.o ~truth fanins in
    Hashtbl.add b.strash key id;
    id

(* [restrict truth i v] pins input [i] to [v]: the table over the
   remaining inputs, which keep their relative order. *)
let restrict truth i v =
  Array.init
    (Array.length truth lsr 1)
    (fun row ->
      let low = row land ((1 lsl i) - 1) in
      let high = (row lsr i) lsl (i + 1) in
      truth.(high lor (if v then 1 lsl i else 0) lor low))

(* [drop_dup truth j i] removes input [j] knowing it always equals input
   [i] (with [i < j]): only rows where bit j = bit i are reachable. *)
let drop_dup truth j i =
  Array.init
    (Array.length truth lsr 1)
    (fun row ->
      let low = row land ((1 lsl j) - 1) in
      let high = (row lsr j) lsl (j + 1) in
      let vi = (row lsr i) land 1 in
      truth.(high lor (vi lsl j) lor low))

let insensitive truth i =
  let half = 1 lsl i in
  let ok = ref true in
  for row = 0 to Array.length truth - 1 do
    if row land half = 0 && truth.(row) <> truth.(row lor half) then ok := false
  done;
  !ok

let rec mk_lut b truth fanins =
  let n = Array.length fanins in
  if n = 0 then begin
    b.folded <- b.folded + 1;
    mk_const b truth.(0)
  end
  else begin
    let remove i =
      Array.append (Array.sub fanins 0 i) (Array.sub fanins (i + 1) (n - 1 - i))
    in
    let ci = ref (-1) in
    Array.iteri (fun i f -> if !ci < 0 && const_val b f <> None then ci := i) fanins;
    if !ci >= 0 then begin
      let i = !ci in
      let v =
        match const_val b fanins.(i) with Some v -> v | None -> assert false
      in
      b.folded <- b.folded + 1;
      mk_lut b (restrict truth i v) (remove i)
    end
    else begin
      let di = ref (-1) and dj = ref (-1) in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if !dj < 0 && fanins.(i) = fanins.(j) then begin
            di := i;
            dj := j
          end
        done
      done;
      if !dj >= 0 then begin
        b.rewritten <- b.rewritten + 1;
        mk_lut b (drop_dup truth !dj !di) (remove !dj)
      end
      else begin
        let ii = ref (-1) in
        for i = 0 to n - 1 do
          if !ii < 0 && insensitive truth i then ii := i
        done;
        if !ii >= 0 then begin
          b.rewritten <- b.rewritten + 1;
          mk_lut b (restrict truth !ii false) (remove !ii)
        end
        else if n = 1 then begin
          (* a 1-input table that depends on its input is Buf or Not *)
          b.rewritten <- b.rewritten + 1;
          if truth.(1) then fanins.(0) else mk_not b fanins.(0)
        end
        else strash_lut b truth fanins
      end
    end
  end

let translate b net remap nd =
  let m f =
    (* engine semantics: a fanin left pointing at a Dead node reads 0 *)
    if (Netlist.node net f).Netlist.kind = Netlist.Dead then mk_const b false
    else begin
      assert (remap.(f) >= 0);
      remap.(f)
    end
  in
  match nd.Netlist.kind with
  | Netlist.Gate fn -> (
    let fs = Array.map m nd.Netlist.fanins in
    match fn with
    | Cell.Not -> mk_not b fs.(0)
    | Cell.Buf ->
      b.rewritten <- b.rewritten + 1;
      fs.(0)
    | Cell.And -> mk_andor b ~is_and:true ~inv:false (Array.to_list fs)
    | Cell.Nand -> mk_andor b ~is_and:true ~inv:true (Array.to_list fs)
    | Cell.Or -> mk_andor b ~is_and:false ~inv:false (Array.to_list fs)
    | Cell.Nor -> mk_andor b ~is_and:false ~inv:true (Array.to_list fs)
    | Cell.Xor -> mk_xor b ~inv:false (Array.to_list fs)
    | Cell.Xnor -> mk_xor b ~inv:true (Array.to_list fs)
    | Cell.Mux -> mk_mux b ~sel:fs.(0) ~f0:fs.(1) ~f1:fs.(2))
  | Netlist.Lut truth ->
    mk_lut b (Array.copy truth) (Array.map m nd.Netlist.fanins)
  | Netlist.Input | Netlist.Const _ | Netlist.Ff | Netlist.Dead -> assert false

let pass net =
  let n = Netlist.num_nodes net in
  let live = Array.make (max 1 n) false in
  let rec mark id =
    if not live.(id) then begin
      live.(id) <- true;
      let nd = Netlist.node net id in
      if nd.Netlist.kind <> Netlist.Dead then Array.iter mark nd.Netlist.fanins
    end
  in
  List.iter (fun (_, d) -> mark d) (Netlist.outputs net);
  for id = 0 to n - 1 do
    match (Netlist.node net id).Netlist.kind with
    | Netlist.Input | Netlist.Ff -> mark id
    | Netlist.Const _ | Netlist.Gate _ | Netlist.Lut _ | Netlist.Dead -> ()
  done;
  let b =
    {
      o = Netlist.create (Netlist.name net);
      strash = Hashtbl.create 257;
      merged = 0;
      folded = 0;
      rewritten = 0;
    }
  in
  let remap = Array.make (max 1 n) (-1) in
  (* sources first, in declaration order, so the optimized netlist's
     engine source space aligns index-for-index with the original's *)
  for id = 0 to n - 1 do
    let nd = Netlist.node net id in
    match nd.Netlist.kind with
    | Netlist.Input -> remap.(id) <- Netlist.add_input b.o nd.Netlist.name
    | Netlist.Ff ->
      (* the D pin is patched below, once its cone exists *)
      remap.(id) <-
        Netlist.add_ff b.o ~name:nd.Netlist.name (Netlist.add_const b.o false)
    | Netlist.Const v -> if live.(id) then remap.(id) <- Netlist.add_const b.o v
    | Netlist.Gate _ | Netlist.Lut _ | Netlist.Dead -> ()
  done;
  let swept = ref 0 in
  List.iter
    (fun id ->
      if live.(id) then begin
        let nd = Netlist.node net id in
        let pre = Netlist.num_nodes b.o in
        let nv = translate b net remap nd in
        remap.(id) <- nv;
        (* a node that survived 1:1 keeps its original name *)
        if nv >= pre && Netlist.find b.o nd.Netlist.name = None then
          try Netlist.rename b.o nv nd.Netlist.name
          with Invalid_argument _ -> ()
      end
      else incr swept)
    (Netlist.comb_topo_order net);
  let res f =
    if (Netlist.node net f).Netlist.kind = Netlist.Dead then mk_const b false
    else remap.(f)
  in
  for id = 0 to n - 1 do
    let nd = Netlist.node net id in
    match nd.Netlist.kind with
    | Netlist.Ff ->
      Netlist.set_fanin b.o ~node_id:remap.(id) ~pin:0
        ~driver:(res nd.Netlist.fanins.(0))
    | _ -> ()
  done;
  List.iter (fun (po, d) -> Netlist.add_output b.o po (res d)) (Netlist.outputs net);
  (b.o, b.merged, b.folded, b.rewritten, !swept)

let count_nodes net =
  let nodes = ref 0 and gates = ref 0 in
  for id = 0 to Netlist.num_nodes net - 1 do
    match (Netlist.node net id).Netlist.kind with
    | Netlist.Dead -> ()
    | Netlist.Gate _ | Netlist.Lut _ ->
      incr nodes;
      incr gates
    | Netlist.Input | Netlist.Const _ | Netlist.Ff -> incr nodes
  done;
  (!nodes, !gates)

let run ?(max_iters = 4) net =
  if max_iters < 1 then invalid_arg "Opt.run: max_iters must be >= 1";
  let nodes_before, gates_before = count_nodes net in
  let merged = ref 0
  and folded = ref 0
  and rewritten = ref 0
  and swept = ref 0 in
  let cur = ref net and iters = ref 0 and again = ref true in
  while !again && !iters < max_iters do
    let next, m, f, r, s = pass !cur in
    incr iters;
    again :=
      m + f + r + s > 0 || Netlist.num_nodes next <> Netlist.num_nodes !cur;
    (* keep the fresh rebuild even at the fixpoint, so the result never
       aliases the input *)
    cur := next;
    merged := !merged + m;
    folded := !folded + f;
    rewritten := !rewritten + r;
    swept := !swept + s
  done;
  let out = !cur in
  Netlist.validate out;
  let nodes_after, gates_after = count_nodes out in
  ( out,
    {
      st_iters = !iters;
      st_nodes_before = nodes_before;
      st_nodes_after = nodes_after;
      st_gates_before = gates_before;
      st_gates_after = gates_after;
      st_merged = !merged;
      st_folded = !folded;
      st_rewritten = !rewritten;
      st_swept = !swept;
    } )
