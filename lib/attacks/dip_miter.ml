type t = {
  locked : Netlist.t;
  key_inputs : string list;
  solver : Solver.t;
  guard : Lit.t;  (* the miter clause binds only under it *)
  x_names : string list;
  x_vars : int array;  (* aligned with [x_names] *)
  k1 : (string, int) Hashtbl.t;
  k2 : (string, int) Hashtbl.t;
  cone : Tseitin.io_cone;  (* the X inputs pinned: the key cone *)
  outputs : (string * int) array;
  out_index : (string, int) Hashtbl.t;  (* output name -> position *)
  mutable dip_conflicts : int;  (* conflicts of the DIP searches *)
}

(* One I/O constraint: the X values [x], aligned with [x_names], and the
   output pins [y]. *)
type io = { x : bool array; y : (int * bool) array }

(* The variable [tbl] gives input [id]'s name, if any. *)
let input_var locked tbl id =
  let nd = Netlist.node locked id in
  if nd.Netlist.kind <> Netlist.Input then None
  else Hashtbl.find_opt tbl nd.Netlist.name

let x_inputs locked ~key_inputs =
  let is_key = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace is_key k ()) key_inputs;
  List.filter
    (fun pi -> not (Hashtbl.mem is_key (Netlist.node locked pi).Netlist.name))
    (Netlist.inputs locked)

let names locked ids = List.map (fun id -> (Netlist.node locked id).Netlist.name) ids

(* Output name -> position in [outputs] ({!Netlist.outputs} pairs). *)
let out_index outputs =
  let index = Hashtbl.create (Array.length outputs) in
  Array.iteri (fun i (po, _) -> Hashtbl.replace index po i) outputs;
  index

(* The named [reply]'s value of each of [outputs], whose positions
   [index] maps; the first of duplicate names wins. *)
let output_values outputs index reply =
  let vals = Array.make (Array.length outputs) (-1) in
  List.iter
    (fun (po, v) ->
      match Hashtbl.find_opt index po with
      | Some i when vals.(i) < 0 -> vals.(i) <- Bool.to_int v
      | Some _ | None -> ())
    reply;
  Array.mapi
    (fun i (po, _) ->
      if vals.(i) < 0 then invalid_arg ("Dip_miter.io: the reply has no output " ^ po);
      vals.(i) = 1)
    outputs

let named_oracle locked ~key_inputs f =
  let x_names = names locked (x_inputs locked ~key_inputs) in
  let xs = Array.of_list x_names in
  let outputs = Array.of_list (Netlist.outputs locked) in
  let index = out_index outputs in
  let one q =
    let reply = f (List.init (Array.length xs) (fun i -> (xs.(i), Bitpack.get q i))) in
    let vals = output_values outputs index reply in
    Bitpack.init (Array.length vals) (Array.get vals)
  in
  Oracle.of_packed
    ~name:("netlist " ^ Netlist.name locked)
    ~inputs:x_names
    ~outputs:(List.map fst (Netlist.outputs locked))
    ~batch:(Array.map one) one

let create locked ~key_inputs =
  let x_pis = x_inputs locked ~key_inputs in
  let x_names = names locked x_pis in
  let solver = Solver.create () in
  let x_tbl = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace x_tbl n (Solver.new_var solver)) x_names;
  let k1 = Hashtbl.create 16 and k2 = Hashtbl.create 16 in
  List.iter
    (fun k ->
      Hashtbl.replace k1 k (Solver.new_var solver);
      Hashtbl.replace k2 k (Solver.new_var solver))
    key_inputs;
  let vars1 =
    Tseitin.encode solver locked ~shared:(fun id ->
        match input_var locked k1 id with
        | Some v -> Some v
        | None -> input_var locked x_tbl id)
  in
  (* The key inputs' forward cone: the only nodes whose value can differ
     between the copies, and the only nodes a DIP leaves open.  The
     second copy takes every other node's variable from the first, so it
     encodes the cone alone. *)
  let cone = Tseitin.io_cone locked ~pinned:(Array.of_list x_pis) in
  let vars2 =
    Tseitin.encode solver locked ~shared:(fun id ->
        if Tseitin.in_cone cone id then input_var locked k2 id else Some vars1.(id))
  in
  let guard = Lit.pos (Solver.new_var solver) in
  Tseitin.miter ~guard solver
    (List.map (fun (_, d) -> (vars1.(d), vars2.(d))) (Netlist.outputs locked));
  let outputs = Array.of_list (Netlist.outputs locked) in
  {
    locked;
    key_inputs;
    solver;
    guard;
    x_names;
    x_vars = Array.of_list (List.map (Hashtbl.find x_tbl) x_names);
    k1;
    k2;
    cone;
    outputs;
    out_index = out_index outputs;
    dip_conflicts = 0;
  }

let x_names t = t.x_names

(* [f ()] in span [name], whose "E" record carries [counts ()], also when
   [f] raises. *)
let counted_span name ~args counts f =
  let sp = Obs.Trace.span_begin ~args name in
  match f () with
  | r ->
    Obs.Trace.span_end ~args:(counts ()) sp;
    r
  | exception ex ->
    Obs.Trace.span_end ~args:(counts ()) sp;
    raise ex

let solve t ~iter =
  let s = t.solver in
  let c0 = Solver.conflicts s and p0 = Solver.propagations s and l0 = Solver.learnts s in
  let r =
    counted_span "attack.solve"
      ~args:[ ("iter", Cjson.Int iter) ]
      (fun () ->
        [
          ("conflicts", Cjson.Int (Solver.conflicts s - c0));
          ("propagations", Cjson.Int (Solver.propagations s - p0));
          ("learnts", Cjson.Int (Solver.learnts s - l0));
        ])
      (fun () -> Solver.solve ~assumptions:[ t.guard ] s)
  in
  t.dip_conflicts <- t.dip_conflicts + Solver.conflicts s - c0;
  r

let dip t = List.mapi (fun i n -> (n, Solver.value t.solver t.x_vars.(i))) t.x_names

let conflicts t = t.dip_conflicts

let solver t = t.solver

let key t =
  match Solver.solve ~assumptions:[ Lit.negate t.guard ] t.solver with
  | Solver.Sat ->
    Some
      (List.map
         (fun k -> (k, Solver.value t.solver (Hashtbl.find t.k1 k)))
         t.key_inputs)
  | Solver.Unsat -> None

let io t dip reply =
  let vals = output_values t.outputs t.out_index reply in
  {
    x = Array.of_list (List.map snd dip);
    y = Array.mapi (fun i (_, d) -> (d, vals.(i))) t.outputs;
  }

let constrain t io =
  Tseitin.assert_io t.solver t.cone
    ~copies:[ input_var t.locked t.k1; input_var t.locked t.k2 ]
    ~x:io.x ~outputs:io.y

let iteration t ~args f =
  let s = t.solver in
  let v0 = Solver.num_vars s and c0 = Solver.num_clauses s in
  counted_span "attack.iteration" ~args
    (fun () ->
      [
        ("vars", Cjson.Int (Solver.num_vars s - v0));
        ("clauses", Cjson.Int (Solver.num_clauses s - c0));
      ])
    f
