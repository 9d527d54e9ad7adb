

type kind =
  | Input
  | Const of bool
  | Gate of Cell.gate_fn
  | Lut of bool array
  | Ff
  | Dead

type node = {
  id : int;
  mutable name : string;
  mutable kind : kind;
  mutable fanins : int array;
  mutable cell : Cell.t option;
}

type po = { po_name : string; mutable driver : int }

(* A netlist compiled to a flat instruction stream: one instruction per
   combinational node, fanins flattened into a single array addressed by
   [offs], each instruction tagged with a fused opcode (see [fused_op]).
   Evaluation then needs no node records, no per-call fanin allocation
   and no hashing — just int arrays.

   Values live in *slots*, not node ids: sources take slots
   [0 .. n_srcs-1] in declaration order, constants the next few, and
   instruction [i] writes slot [n_slots - n_instr + i] — so the hot loop
   walks the value array in the same order it walks the instruction
   stream, and a fanin read is always a lower slot.  Slot [n_slots] is a
   spare always-zero slot that dead fanins are wired to.  [slot_of_id] /
   [id_of_slot] translate for consumers that think in node ids. *)
type engine = {
  eng_gen : int;  (* generation of the netlist this was compiled from *)
  eng_nodes : int;
  n_srcs : int;  (* sources occupy slots 0..n_srcs-1, declaration order *)
  n_slots : int;  (* live slots; buffers carry one extra all-zero slot *)
  ops : int array;  (* fused opcode per instruction, see [fused_op] *)
  offs : int array;  (* length = #instructions + 1; slice of [fan] *)
  fan : int array;  (* flattened fanin slots *)
  tabs : bool array array;  (* LUT truth table per instruction, [||] else *)
  srcs : int array;  (* Input and Ff node ids; source i lives in slot i *)
  one_slots : int array;  (* slots of Const-true nodes *)
  zero_slots : int array;  (* Const-false slots plus the spare zero slot *)
  slot_of_id : int array;  (* node id -> slot, -1 for Dead *)
  id_of_slot : int array;  (* slot -> node id, length n_slots *)
  mutable eng_scratch : scratch option;  (* lazily created owned scratch *)
}

(* Reusable evaluation buffers.  One scratch belongs to exactly one
   engine; the engine-owned one makes steady-state evaluation
   allocation-free, and independent scratches can be created per domain
   for parallel evaluation of the same engine. *)
and scratch = {
  sc_owner : engine;
  mutable sc_block : int array;  (* >= (n_slots + 1) * sc_words, grown *)
  mutable sc_words : int;  (* word count [sc_fanw] is scaled by, 0 = none *)
  mutable sc_fanw : int array;  (* [fan] pre-scaled for a multi-word call *)
}

(* Graph analyses memoized behind the netlist's generation counter: any
   mutation bumps the generation, which lazily wipes every field. *)
type caches = {
  mutable c_gen : int;
  mutable c_topo_list : int list option;
  mutable c_topo_arr : int array option;
  mutable c_levels : int array option;
  mutable c_fanout : (int * int) list array option;
  mutable c_engine : engine option;
}

type t = {
  net_name : string;
  nodes : node Vec.t;
  pos : po Vec.t;
  by_name : (string, int) Hashtbl.t;
  mutable const0 : int;
  mutable const1 : int;
  mutable gen : int;
  caches : caches;
}

let create net_name =
  {
    net_name;
    nodes = Vec.create ();
    pos = Vec.create ();
    by_name = Hashtbl.create 64;
    const0 = -1;
    const1 = -1;
    gen = 0;
    caches =
      {
        c_gen = 0;
        c_topo_list = None;
        c_topo_arr = None;
        c_levels = None;
        c_fanout = None;
        c_engine = None;
      };
  }

let generation t = t.gen

(* Observability instruments (see DESIGN.md §6f).  Generation bumps and
   engine compiles are counted unconditionally — they happen at mutation
   and compile granularity, not per evaluation.  Per-eval accounting is
   gated behind [Obs.Probe] so the untraced hot path pays one boolean
   load per call. *)
let m_generation_bumps = Obs.Metrics.counter "netlist.generation_bumps"
let m_engine_compiles = Obs.Metrics.counter "engine.compiles"
let m_engine_instructions = Obs.Metrics.counter "engine.instructions_compiled"
let m_engine_block_evals = Obs.Metrics.counter "engine.block_evals"
let m_engine_block_words = Obs.Metrics.counter "engine.block_words"
let m_engine_instr_exec = Obs.Metrics.counter "engine.instructions_executed"

let touch t =
  Obs.Metrics.incr m_generation_bumps;
  t.gen <- t.gen + 1

let caches t =
  let c = t.caches in
  if c.c_gen <> t.gen then begin
    c.c_gen <- t.gen;
    c.c_topo_list <- None;
    c.c_topo_arr <- None;
    c.c_levels <- None;
    c.c_fanout <- None;
    c.c_engine <- None
  end;
  c

let name t = t.net_name

let num_nodes t = Vec.length t.nodes

let node t id =
  if id < 0 || id >= num_nodes t then
    invalid_arg (Printf.sprintf "Netlist.node: bad id %d" id);
  Vec.get t.nodes id

let fresh_name id = Printf.sprintf "n%d" id

let register_name t name id =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Netlist: duplicate node name %S" name);
  Hashtbl.replace t.by_name name id

let add_node t ?name kind fanins cell =
  let id = num_nodes t in
  let name =
    match name with
    | Some n -> n
    | None ->
      (* Auto names may collide with preserved names after renames or
         compaction; probe until free. *)
      let rec probe k =
        let candidate =
          if k = 0 then fresh_name id else Printf.sprintf "n%d_%d" id k
        in
        if Hashtbl.mem t.by_name candidate then probe (k + 1) else candidate
      in
      probe 0
  in
  register_name t name id;
  let n = { id; name; kind; fanins; cell } in
  Vec.push t.nodes n;
  touch t;
  id

let check_fanins t fanins =
  Array.iter
    (fun f ->
      if f < 0 || f >= num_nodes t then
        invalid_arg (Printf.sprintf "Netlist: unknown fanin id %d" f))
    fanins

let add_input t n = add_node t ~name:n Input [||] None

let add_const t b =
  let cached = if b then t.const1 else t.const0 in
  if cached >= 0 then cached
  else begin
    let id = add_node t (Const b) [||] None in
    if b then t.const1 <- id else t.const0 <- id;
    id
  end

let add_gate t ?name ?cell fn fanins =
  check_fanins t fanins;
  let arity = Array.length fanins in
  if not (Cell.arity_ok fn arity) then
    invalid_arg
      (Printf.sprintf "Netlist.add_gate: arity %d illegal for %s" arity
         (Cell.fn_name fn));
  let cell = match cell with Some c -> c | None -> Cell_lib.bind fn arity in
  add_node t ?name (Gate fn) fanins (Some cell)

let add_lut t ?name ~truth fanins =
  check_fanins t fanins;
  let arity = Array.length fanins in
  if Array.length truth <> 1 lsl arity then
    invalid_arg "Netlist.add_lut: truth table size mismatch";
  add_node t ?name (Lut truth) fanins None

let add_ff t ?name d =
  check_fanins t [| d |];
  add_node t ?name Ff [| d |] (Some Cell_lib.dff)

let add_output t n driver =
  check_fanins t [| driver |];
  if Vec.exists (fun po -> po.po_name = n) t.pos then
    invalid_arg (Printf.sprintf "Netlist: duplicate output %S" n);
  Vec.push t.pos { po_name = n; driver };
  touch t

let find t n = Hashtbl.find_opt t.by_name n

let outputs t = Vec.fold (fun acc po -> (po.po_name, po.driver) :: acc) [] t.pos |> List.rev

let set_output_driver t po_name driver =
  check_fanins t [| driver |];
  let found = ref false in
  Vec.iter
    (fun po -> if po.po_name = po_name then begin po.driver <- driver; found := true end)
    t.pos;
  if not !found then
    invalid_arg (Printf.sprintf "Netlist: no output named %S" po_name);
  touch t

let remove_output t po_name =
  if not (Vec.exists (fun po -> po.po_name = po_name) t.pos) then
    invalid_arg (Printf.sprintf "Netlist: no output named %S" po_name);
  let remaining = Vec.fold (fun acc po -> if po.po_name = po_name then acc else po :: acc) [] t.pos in
  Vec.clear t.pos;
  List.iter (Vec.push t.pos) (List.rev remaining);
  touch t

let collect t pred =
  Vec.fold (fun acc n -> if pred n then n.id :: acc else acc) [] t.nodes
  |> List.rev

let inputs t = collect t (fun n -> n.kind = Input)

let ffs t = collect t (fun n -> n.kind = Ff)

let is_comb n = match n.kind with Gate _ | Lut _ -> true | Input | Const _ | Ff | Dead -> false

let set_fanin t ~node_id ~pin ~driver =
  check_fanins t [| driver |];
  let n = node t node_id in
  if pin < 0 || pin >= Array.length n.fanins then
    invalid_arg "Netlist.set_fanin: bad pin";
  n.fanins.(pin) <- driver;
  touch t

let widen_gate t ~node_id ~extra_driver =
  check_fanins t [| extra_driver |];
  let n = node t node_id in
  match n.kind with
  | Gate ((And | Or | Nand | Nor | Xor | Xnor) as fn) ->
    n.fanins <- Array.append n.fanins [| extra_driver |];
    n.cell <- Some (Cell_lib.bind fn (Array.length n.fanins));
    touch t
  | Gate (Not | Buf | Mux) | Input | Const _ | Lut _ | Ff | Dead ->
    invalid_arg "Netlist.widen_gate: not a variadic gate"

let set_gate_fn t ~node_id fn =
  let n = node t node_id in
  match n.kind with
  | Gate _ ->
    let arity = Array.length n.fanins in
    if not (Cell.arity_ok fn arity) then
      invalid_arg
        (Printf.sprintf "Netlist.set_gate_fn: %s cannot take %d inputs"
           (Cell.fn_name fn) arity);
    n.kind <- Gate fn;
    n.cell <- Some (Cell_lib.bind fn arity);
    touch t
  | Input | Const _ | Lut _ | Ff | Dead ->
    invalid_arg "Netlist.set_gate_fn: not a gate"

let rename t id n =
  let nd = node t id in
  if nd.name = n then ()
  else begin
    register_name t n id;
    Hashtbl.remove t.by_name nd.name;
    nd.name <- n;
    touch t
  end

let kill t id =
  let n = node t id in
  Hashtbl.remove t.by_name n.name;
  n.kind <- Dead;
  n.fanins <- [||];
  n.cell <- None;
  if t.const0 = id then t.const0 <- -1;
  if t.const1 = id then t.const1 <- -1;
  touch t

let replace_uses t ~old_id ~new_id =
  check_fanins t [| old_id; new_id |];
  Vec.iter
    (fun n ->
      Array.iteri (fun pin f -> if f = old_id then n.fanins.(pin) <- new_id) n.fanins)
    t.nodes;
  Vec.iter (fun po -> if po.driver = old_id then po.driver <- new_id) t.pos;
  touch t

let copy t =
  let t' = create t.net_name in
  Vec.iter
    (fun n ->
      let kind =
        match n.kind with
        | Lut truth -> Lut (Array.copy truth)
        | (Input | Const _ | Gate _ | Ff | Dead) as k -> k
      in
      let id =
        add_node t' ~name:n.name kind (Array.copy n.fanins) n.cell
      in
      assert (id = n.id);
      (match n.kind with
      | Const false -> t'.const0 <- id
      | Const true -> t'.const1 <- id
      | Input | Gate _ | Lut _ | Ff | Dead -> ())
      )
    t.nodes;
  (* Dead nodes keep a registered name in the copy; drop it to mirror the
     original's table. *)
  Vec.iter
    (fun n -> if n.kind = Dead then Hashtbl.remove t'.by_name n.name)
    t'.nodes;
  Vec.iter (fun po -> Vec.push t'.pos { po_name = po.po_name; driver = po.driver }) t.pos;
  t'

let compact t =
  let remap = Array.make (num_nodes t) (-1) in
  let t' = create t.net_name in
  Vec.iter
    (fun n ->
      match n.kind with
      | Dead -> ()
      | Input -> remap.(n.id) <- add_input t' n.name
      | Const b ->
        let id = add_const t' b in
        (try rename t' id n.name with Invalid_argument _ -> ());
        remap.(n.id) <- id
      | Gate _ | Lut _ | Ff ->
        (* Fanins may point forward (splice insertions), so allocate a
           placeholder now and patch fanins in a second pass. *)
        remap.(n.id) <-
          add_node t' ~name:n.name
            (match n.kind with Lut tt -> Lut (Array.copy tt) | k -> k)
            (Array.copy n.fanins) n.cell)
    t.nodes;
  Vec.iter
    (fun n ->
      if n.kind <> Dead then begin
        let n' = node t' remap.(n.id) in
        Array.iteri
          (fun pin f ->
            if remap.(f) < 0 then
              failwith
                (Printf.sprintf "Netlist.compact: live node %s uses dead node %d"
                   n.name f);
            n'.fanins.(pin) <- remap.(f))
          n.fanins
      end)
    t.nodes;
  Vec.iter
    (fun po ->
      if remap.(po.driver) < 0 then
        failwith
          (Printf.sprintf "Netlist.compact: output %s driven by dead node"
             po.po_name);
      Vec.push t'.pos { po_name = po.po_name; driver = remap.(po.driver) })
    t.pos;
  (t', remap)

let fanout_table t =
  let c = caches t in
  match c.c_fanout with
  | Some table -> table
  | None ->
    let table = Array.make (num_nodes t) [] in
    Vec.iter
      (fun n ->
        Array.iteri (fun pin f -> table.(f) <- (n.id, pin) :: table.(f)) n.fanins)
      t.nodes;
    c.c_fanout <- Some table;
    table

(* Topological order of combinational nodes: sources (inputs, constants,
   flip-flop Q pins) are not listed; every Gate/Lut appears after all of its
   combinational fanins.  Flip-flop D pins are sinks, so sequential loops
   are legal; purely combinational cycles are an error. *)
let compute_topo t =
  let n = num_nodes t in
  let state = Array.make n 0 in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let order = ref [] in
  let rec visit id =
    let nd = node t id in
    if not (is_comb nd) then ()
    else
      match state.(id) with
      | 2 -> ()
      | 1 ->
        failwith
          (Printf.sprintf "Netlist: combinational cycle through node %s" nd.name)
      | _ ->
        state.(id) <- 1;
        Array.iter visit nd.fanins;
        state.(id) <- 2;
        order := id :: !order
  in
  for id = 0 to n - 1 do
    visit id
  done;
  List.rev !order

let comb_topo_order t =
  let c = caches t in
  match c.c_topo_list with
  | Some l -> l
  | None ->
    let l = compute_topo t in
    c.c_topo_list <- Some l;
    l

let comb_topo_array t =
  let c = caches t in
  match c.c_topo_arr with
  | Some a -> a
  | None ->
    let a = Array.of_list (comb_topo_order t) in
    (* comb_topo_order went through [caches] too, same generation *)
    c.c_topo_arr <- Some a;
    a

let levels t =
  let c = caches t in
  match c.c_levels with
  | Some lv -> lv
  | None ->
    let lv = Array.make (num_nodes t) 0 in
    Vec.iter (fun n -> if n.kind = Dead then lv.(n.id) <- -1) t.nodes;
    List.iter
      (fun id ->
        let nd = node t id in
        let deepest =
          Array.fold_left
            (fun acc f -> if is_comb (node t f) then max acc lv.(f) else acc)
            0 nd.fanins
        in
        lv.(id) <- deepest + 1)
      (comb_topo_order t);
    c.c_levels <- Some lv;
    lv

let validate t =
  Vec.iter
    (fun n ->
      let bad msg = failwith (Printf.sprintf "Netlist %s: node %s: %s" t.net_name n.name msg) in
      Array.iter
        (fun f ->
          if f < 0 || f >= num_nodes t then bad "fanin out of range"
          else if (node t f).kind = Dead then bad "fanin is dead")
        n.fanins;
      match n.kind with
      | Input | Const _ ->
        if Array.length n.fanins <> 0 then bad "source with fanins"
      | Gate fn ->
        if not (Cell.arity_ok fn (Array.length n.fanins)) then bad "bad arity"
      | Lut truth ->
        if Array.length truth <> 1 lsl Array.length n.fanins then
          bad "LUT truth-table size mismatch"
      | Ff -> if Array.length n.fanins <> 1 then bad "flip-flop needs exactly D"
      | Dead -> ())
    t.nodes;
  ignore (comb_topo_order t)

module Engine = struct
  type nonrec engine = engine
  type nonrec scratch = scratch

  let word_bits = Sys.int_size

  (* Fused opcodes: the 2-, 3- and 4-input AND/OR/NAND/NOR/XOR/XNOR each
     get a single-pass kernel (a NAND2 is one read-read-write loop, not
     copy + combine + invert); wider variadic gates fall back to the
     generic copy/combine/invert shape.  The numbering also fixes the
     scheduler's bucket order, see [affinity_order]. *)
  let op_not = 0
  let op_buf = 1
  let op_mux = 8
  let op_lut = 21
  let n_ops = 28

  let fused_op (fn : Cell.gate_fn) arity =
    let variadic family =
      family
      +
      match arity with
      | 2 -> 2
      | 3 -> 9
      | 4 -> 22
      | _ -> 15
    in
    match fn with
    | Cell.Not -> op_not
    | Cell.Buf -> op_buf
    | Cell.Mux -> op_mux
    | Cell.And -> variadic 0
    | Cell.Or -> variadic 1
    | Cell.Nand -> variadic 2
    | Cell.Nor -> variadic 3
    | Cell.Xor -> variadic 4
    | Cell.Xnor -> variadic 5

  (* Opcode-affinity list schedule of the topological order [topo]: among
     ready instructions keep draining the current opcode's bucket, so the
     interpreter's dispatch branch stays predictable, and when it runs
     dry switch to the fullest bucket.  LIFO buckets keep producers and
     consumers close together.  The result is still topological. *)
  let affinity_order t topo op_of =
    let n_instr = Array.length topo in
    let pos = Array.make (max 1 (num_nodes t)) (-1) in
    Array.iteri (fun i id -> pos.(id) <- i) topo;
    let ops = Array.map op_of topo in
    let indeg = Array.make (max 1 n_instr) 0 in
    let succ_off = Array.make (n_instr + 1) 0 in
    let each_edge f =
      Array.iteri
        (fun i id ->
          Array.iter
            (fun src -> if pos.(src) >= 0 then f pos.(src) i)
            (node t id).fanins)
        topo
    in
    each_edge (fun p i ->
        indeg.(i) <- indeg.(i) + 1;
        succ_off.(p + 1) <- succ_off.(p + 1) + 1);
    for i = 0 to n_instr - 1 do
      succ_off.(i + 1) <- succ_off.(i) + succ_off.(i + 1)
    done;
    let succ = Array.make (max 1 succ_off.(n_instr)) 0 in
    let fill_at = Array.sub succ_off 0 (max 1 n_instr) in
    each_edge (fun p i ->
        succ.(fill_at.(p)) <- i;
        fill_at.(p) <- fill_at.(p) + 1);
    let buckets = Array.make n_ops [] and blen = Array.make n_ops 0 in
    let push i =
      let b = ops.(i) in
      buckets.(b) <- i :: buckets.(b);
      blen.(b) <- blen.(b) + 1
    in
    for i = 0 to n_instr - 1 do
      if indeg.(i) = 0 then push i
    done;
    let order = Array.make n_instr 0 and cur = ref 0 in
    for q = 0 to n_instr - 1 do
      if blen.(!cur) = 0 then begin
        let best = ref 0 in
        for b = 1 to n_ops - 1 do
          if blen.(b) > blen.(!best) then best := b
        done;
        cur := !best
      end;
      match buckets.(!cur) with
      | [] -> assert false
      | i :: tl ->
        buckets.(!cur) <- tl;
        blen.(!cur) <- blen.(!cur) - 1;
        order.(q) <- topo.(i);
        for x = succ_off.(i) to succ_off.(i + 1) - 1 do
          let u = succ.(x) in
          indeg.(u) <- indeg.(u) - 1;
          if indeg.(u) = 0 then push u
        done
    done;
    order

  let compile t =
    Obs.Trace.with_span
      ~args:[ ("netlist", Cjson.Str t.net_name); ("gen", Cjson.Int t.gen) ]
      "engine.compile"
    @@ fun () ->
    let op_of id =
      let nd = node t id in
      match nd.kind with
      | Gate fn -> fused_op fn (Array.length nd.fanins)
      | Lut _ -> op_lut
      | Input | Const _ | Ff | Dead -> assert false
    in
    let order = affinity_order t (comb_topo_array t) op_of in
    let n_instr = Array.length order in
    let n = num_nodes t in
    (* slot assignment: sources, then constants, then instructions in
       schedule order — value writes are sequential in memory *)
    let slot_of_id = Array.make (max 1 n) (-1) in
    let srcs = ref [] and consts = ref [] in
    Vec.iter
      (fun nd ->
        match nd.kind with
        | Input | Ff -> srcs := nd.id :: !srcs
        | Const b -> consts := (nd.id, b) :: !consts
        | Gate _ | Lut _ | Dead -> ())
      t.nodes;
    let srcs = Array.of_list (List.rev !srcs) in
    let n_srcs = Array.length srcs in
    Array.iteri (fun i id -> slot_of_id.(id) <- i) srcs;
    let next = ref n_srcs in
    let one_slots = ref [] and zero_slots = ref [] in
    List.iter
      (fun (id, b) ->
        slot_of_id.(id) <- !next;
        if b then one_slots := !next :: !one_slots
        else zero_slots := !next :: !zero_slots;
        incr next)
      (List.rev !consts);
    Array.iter
      (fun id ->
        slot_of_id.(id) <- !next;
        incr next)
      order;
    let n_slots = !next in
    (* spare all-zero slot: anything a killed node still drives reads 0 *)
    let zero_slot = n_slots in
    zero_slots := zero_slot :: !zero_slots;
    let slot_of f = if slot_of_id.(f) < 0 then zero_slot else slot_of_id.(f) in
    let ops = Array.map op_of order in
    let tabs = Array.make n_instr [||] in
    let offs = Array.make (n_instr + 1) 0 in
    Array.iteri
      (fun i id ->
        let nd = node t id in
        offs.(i + 1) <- offs.(i) + Array.length nd.fanins;
        match nd.kind with Lut truth -> tabs.(i) <- truth | _ -> ())
      order;
    Obs.Metrics.incr m_engine_compiles;
    Obs.Metrics.add m_engine_instructions n_instr;
    let fan = Array.make (max 1 offs.(n_instr)) 0 in
    Array.iteri
      (fun i id ->
        Array.iteri
          (fun pin f -> fan.(offs.(i) + pin) <- slot_of f)
          (node t id).fanins)
      order;
    let id_of_slot = Array.make (max 1 n_slots) (-1) in
    Array.iteri
      (fun id s -> if s >= 0 then id_of_slot.(s) <- id)
      slot_of_id;
    {
      eng_gen = t.gen;
      eng_nodes = n;
      n_srcs;
      n_slots;
      ops;
      offs;
      fan;
      tabs;
      srcs;
      one_slots = Array.of_list (List.rev !one_slots);
      zero_slots = Array.of_list (List.rev !zero_slots);
      slot_of_id;
      id_of_slot;
      eng_scratch = None;
    }

  let get t =
    let c = caches t in
    match c.c_engine with
    | Some e -> e
    | None ->
      let e = compile t in
      c.c_engine <- Some e;
      e

  let generation e = e.eng_gen

  let sources e = e.srcs
  let n_slots e = e.n_slots
  let slot_of_id e = e.slot_of_id

  let create_scratch e =
    { sc_owner = e; sc_block = [||]; sc_words = 0; sc_fanw = [||] }

  let owned_scratch e =
    match e.eng_scratch with
    | Some s -> s
    | None ->
      let s = create_scratch e in
      e.eng_scratch <- Some s;
      s

  let scratch_for e = function
    | None -> owned_scratch e
    | Some s ->
      if s.sc_owner != e then
        invalid_arg "Netlist.Engine: scratch belongs to a different engine";
      s

  (* The fused kernels over [nw] words per slot, word k of slot s at
     [blk.(s * nw + k)], with [fanw] the fanin slots pre-scaled by [nw].
     Bounds are established once per call ([blk] holds
     [(n_slots + 1) * nw] words and every slot in [fan] is at most
     [n_slots] by construction), so the inner loops use unchecked
     accesses — this is the difference between 3 and 7 memory touches
     per NAND2 per word. *)
  let run e fanw (blk : int array) nw =
    let ops = e.ops and offs = e.offs and tabs = e.tabs in
    let first = e.n_slots - Array.length ops in
    for i = 0 to Array.length ops - 1 do
      let lo = Array.unsafe_get offs i in
      let db = (first + i) * nw in
      match Array.unsafe_get ops i with
      | 0 ->
        let a = Array.unsafe_get fanw lo in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k) (lnot (Array.unsafe_get blk (a + k)))
        done
      | 1 ->
        let a = Array.unsafe_get fanw lo in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k) (Array.unsafe_get blk (a + k))
        done
      | 2 ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1) in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k)
            (Array.unsafe_get blk (a + k) land Array.unsafe_get blk (b + k))
        done
      | 3 ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1) in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k)
            (Array.unsafe_get blk (a + k) lor Array.unsafe_get blk (b + k))
        done
      | 4 ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1) in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k)
            (lnot
               (Array.unsafe_get blk (a + k) land Array.unsafe_get blk (b + k)))
        done
      | 5 ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1) in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k)
            (lnot
               (Array.unsafe_get blk (a + k) lor Array.unsafe_get blk (b + k)))
        done
      | 6 ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1) in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k)
            (Array.unsafe_get blk (a + k) lxor Array.unsafe_get blk (b + k))
        done
      | 7 ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1) in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k)
            (lnot
               (Array.unsafe_get blk (a + k) lxor Array.unsafe_get blk (b + k)))
        done
      | 8 ->
        let s = Array.unsafe_get fanw lo
        and a = Array.unsafe_get fanw (lo + 1)
        and b = Array.unsafe_get fanw (lo + 2) in
        for k = 0 to nw - 1 do
          let sv = Array.unsafe_get blk (s + k) in
          Array.unsafe_set blk (db + k)
            (sv land Array.unsafe_get blk (b + k)
            lor (lnot sv land Array.unsafe_get blk (a + k)))
        done
      | 9 ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1)
        and c = Array.unsafe_get fanw (lo + 2) in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k)
            (Array.unsafe_get blk (a + k)
            land Array.unsafe_get blk (b + k)
            land Array.unsafe_get blk (c + k))
        done
      | 10 ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1)
        and c = Array.unsafe_get fanw (lo + 2) in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k)
            (Array.unsafe_get blk (a + k)
            lor Array.unsafe_get blk (b + k)
            lor Array.unsafe_get blk (c + k))
        done
      | 11 ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1)
        and c = Array.unsafe_get fanw (lo + 2) in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k)
            (lnot
               (Array.unsafe_get blk (a + k)
               land Array.unsafe_get blk (b + k)
               land Array.unsafe_get blk (c + k)))
        done
      | 12 ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1)
        and c = Array.unsafe_get fanw (lo + 2) in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k)
            (lnot
               (Array.unsafe_get blk (a + k)
               lor Array.unsafe_get blk (b + k)
               lor Array.unsafe_get blk (c + k)))
        done
      | 13 ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1)
        and c = Array.unsafe_get fanw (lo + 2) in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k)
            (Array.unsafe_get blk (a + k)
            lxor Array.unsafe_get blk (b + k)
            lxor Array.unsafe_get blk (c + k))
        done
      | 14 ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1)
        and c = Array.unsafe_get fanw (lo + 2) in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k)
            (lnot
               (Array.unsafe_get blk (a + k)
               lxor Array.unsafe_get blk (b + k)
               lxor Array.unsafe_get blk (c + k)))
        done
      | (22 | 24) as op ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1)
        and c = Array.unsafe_get fanw (lo + 2)
        and d = Array.unsafe_get fanw (lo + 3) in
        if op = 22 then
          for k = 0 to nw - 1 do
            Array.unsafe_set blk (db + k)
              (Array.unsafe_get blk (a + k)
              land Array.unsafe_get blk (b + k)
              land Array.unsafe_get blk (c + k)
              land Array.unsafe_get blk (d + k))
          done
        else
          for k = 0 to nw - 1 do
            Array.unsafe_set blk (db + k)
              (lnot
                 (Array.unsafe_get blk (a + k)
                 land Array.unsafe_get blk (b + k)
                 land Array.unsafe_get blk (c + k)
                 land Array.unsafe_get blk (d + k)))
          done
      | (23 | 25) as op ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1)
        and c = Array.unsafe_get fanw (lo + 2)
        and d = Array.unsafe_get fanw (lo + 3) in
        if op = 23 then
          for k = 0 to nw - 1 do
            Array.unsafe_set blk (db + k)
              (Array.unsafe_get blk (a + k)
              lor Array.unsafe_get blk (b + k)
              lor Array.unsafe_get blk (c + k)
              lor Array.unsafe_get blk (d + k))
          done
        else
          for k = 0 to nw - 1 do
            Array.unsafe_set blk (db + k)
              (lnot
                 (Array.unsafe_get blk (a + k)
                 lor Array.unsafe_get blk (b + k)
                 lor Array.unsafe_get blk (c + k)
                 lor Array.unsafe_get blk (d + k)))
          done
      | (26 | 27) as op ->
        let a = Array.unsafe_get fanw lo
        and b = Array.unsafe_get fanw (lo + 1)
        and c = Array.unsafe_get fanw (lo + 2)
        and d = Array.unsafe_get fanw (lo + 3) in
        if op = 26 then
          for k = 0 to nw - 1 do
            Array.unsafe_set blk (db + k)
              (Array.unsafe_get blk (a + k)
              lxor Array.unsafe_get blk (b + k)
              lxor Array.unsafe_get blk (c + k)
              lxor Array.unsafe_get blk (d + k))
          done
        else
          for k = 0 to nw - 1 do
            Array.unsafe_set blk (db + k)
              (lnot
                 (Array.unsafe_get blk (a + k)
                 lxor Array.unsafe_get blk (b + k)
                 lxor Array.unsafe_get blk (c + k)
                 lxor Array.unsafe_get blk (d + k)))
          done
      | (15 | 17) as op ->
        let hi = Array.unsafe_get offs (i + 1) in
        let a = Array.unsafe_get fanw lo in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k) (Array.unsafe_get blk (a + k))
        done;
        for j = lo + 1 to hi - 1 do
          let f = Array.unsafe_get fanw j in
          for k = 0 to nw - 1 do
            Array.unsafe_set blk (db + k)
              (Array.unsafe_get blk (db + k) land Array.unsafe_get blk (f + k))
          done
        done;
        if op = 17 then
          for k = 0 to nw - 1 do
            Array.unsafe_set blk (db + k) (lnot (Array.unsafe_get blk (db + k)))
          done
      | (16 | 18) as op ->
        let hi = Array.unsafe_get offs (i + 1) in
        let a = Array.unsafe_get fanw lo in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k) (Array.unsafe_get blk (a + k))
        done;
        for j = lo + 1 to hi - 1 do
          let f = Array.unsafe_get fanw j in
          for k = 0 to nw - 1 do
            Array.unsafe_set blk (db + k)
              (Array.unsafe_get blk (db + k) lor Array.unsafe_get blk (f + k))
          done
        done;
        if op = 18 then
          for k = 0 to nw - 1 do
            Array.unsafe_set blk (db + k) (lnot (Array.unsafe_get blk (db + k)))
          done
      | (19 | 20) as op ->
        let hi = Array.unsafe_get offs (i + 1) in
        let a = Array.unsafe_get fanw lo in
        for k = 0 to nw - 1 do
          Array.unsafe_set blk (db + k) (Array.unsafe_get blk (a + k))
        done;
        for j = lo + 1 to hi - 1 do
          let f = Array.unsafe_get fanw j in
          for k = 0 to nw - 1 do
            Array.unsafe_set blk (db + k)
              (Array.unsafe_get blk (db + k) lxor Array.unsafe_get blk (f + k))
          done
        done;
        if op = 20 then
          for k = 0 to nw - 1 do
            Array.unsafe_set blk (db + k) (lnot (Array.unsafe_get blk (db + k)))
          done
      | _ ->
        (* LUT: sum of products over the true rows of the truth table;
           for every lane the conjunction selects exactly the row indexed
           by that lane's fanin bits *)
        let hi = Array.unsafe_get offs (i + 1) in
        let tab = tabs.(i) in
        for k = 0 to nw - 1 do
          let r = ref 0 in
          for row = 0 to Array.length tab - 1 do
            if tab.(row) then begin
              let term = ref (-1) in
              for j = lo to hi - 1 do
                let w = blk.(Array.unsafe_get fanw j + k) in
                term :=
                  !term
                  land (if row land (1 lsl (j - lo)) <> 0 then w else lnot w)
              done;
              r := !r lor !term
            end
          done;
          Array.unsafe_set blk (db + k) !r
        done
    done

  let eval_block ?scratch e ~n_words ~fill =
    if n_words < 1 then
      invalid_arg "Netlist.Engine.eval_block: n_words must be >= 1";
    if Obs.Probe.active () then begin
      Obs.Metrics.incr m_engine_block_evals;
      Obs.Metrics.add m_engine_block_words n_words;
      Obs.Metrics.add m_engine_instr_exec (Array.length e.ops)
    end;
    let s = scratch_for e scratch in
    if Array.length s.sc_block < (e.n_slots + 1) * n_words then
      s.sc_block <- Array.make ((e.n_slots + 1) * n_words) 0;
    (* one word reads [fan] as it is, so alternating one-word and
       multi-word calls keep the scaled copy *)
    let fanw =
      if n_words = 1 then e.fan
      else begin
        if s.sc_words <> n_words then begin
          s.sc_fanw <- Array.map (fun f -> f * n_words) e.fan;
          s.sc_words <- n_words
        end;
        s.sc_fanw
      end
    in
    let blk = s.sc_block in
    (* source region zeroed so partially-filled blocks read 0, and
       constant/spare slots re-pinned: a previous call with a different
       n_words laid slots out at a different stride *)
    Array.fill blk 0 (e.n_srcs * n_words) 0;
    Array.iter
      (fun sl -> Array.fill blk (sl * n_words) n_words 0)
      e.zero_slots;
    fill blk;
    Array.iter
      (fun sl -> Array.fill blk (sl * n_words) n_words (-1))
      e.one_slots;
    run e fanw blk n_words;
    blk

  (* Branch-free SWAR popcount.  The familiar 64-bit masks do not fit in
     a 63-bit literal, so the wide ones are assembled by shifting; all
     the arithmetic is exact mod 2^63 because no step ever needs bit 63
     (byte-wise partial sums stay under 128).  On 32-bit hosts fall back
     to the loop. *)
  let m1 = (0x55555555 lsl 32) lor 0x55555555
  let m2 = (0x33333333 lsl 32) lor 0x33333333
  let m4 = 0x0F0F0F0F0F0F0F0F
  let h01 = 0x0101010101010101

  let popcount_loop w =
    let c = ref 0 and w = ref w in
    while !w <> 0 do
      w := !w land (!w - 1);
      incr c
    done;
    !c

  let popcount =
    if Sys.int_size <> 63 then popcount_loop
    else
      fun w ->
        let w = w - ((w lsr 1) land m1) in
        let w = (w land m2) + ((w lsr 2) land m2) in
        let w = (w + (w lsr 4)) land m4 in
        (w * h01) lsr 56

  (* [Random.State.bits] yields 30 bits per call; compose enough calls to
     fill every lane of a word. *)
  let random_word rng =
    let w = ref 0 and filled = ref 0 in
    while !filled < word_bits do
      let chunk = min 30 (word_bits - !filled) in
      let b = Random.State.bits rng land ((1 lsl chunk) - 1) in
      w := !w lor (b lsl !filled);
      filled := !filled + chunk
    done;
    !w
end

(* Lane 0 of a one-word block in a fresh scratch (safe on a shared
   engine), scattered back to the node-id layout; dead nodes read
   false. *)
let eval_comb t assignment =
  let e = Engine.get t in
  let blk =
    Engine.eval_block ~scratch:(Engine.create_scratch e) e ~n_words:1
      ~fill:(fun buf ->
        Array.iteri (fun i id -> if assignment id then buf.(i) <- 1) e.srcs)
  in
  let out = Array.make e.eng_nodes false in
  for sl = 0 to e.n_slots - 1 do
    out.(e.id_of_slot.(sl)) <- blk.(sl) land 1 = 1
  done;
  out

let pp_kind ppf = function
  | Input -> Format.pp_print_string ppf "input"
  | Const b -> Format.fprintf ppf "const%d" (Bool.to_int b)
  | Gate fn -> Format.pp_print_string ppf (Cell.fn_name fn)
  | Lut tt -> Format.fprintf ppf "lut%d" (Array.length tt)
  | Ff -> Format.pp_print_string ppf "dff"
  | Dead -> Format.pp_print_string ppf "dead"

let pp_node ppf n =
  Format.fprintf ppf "%d:%s=%a(%s)" n.id n.name pp_kind n.kind
    (String.concat "," (Array.to_list (Array.map string_of_int n.fanins)))
