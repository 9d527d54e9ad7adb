type t = {
  locked : Netlist.t;
  key_inputs : string list;
  solver : Solver.t;
  x_pis : int array;
  x_names : string list;
  x_vars : int array;  (* aligned with [x_pis] *)
  k1 : (string, int) Hashtbl.t;
  k2 : (string, int) Hashtbl.t;
  outputs : (string * int) array;
  out_index : (string, int) Hashtbl.t;  (* output name -> position *)
}

(* One I/O constraint: the X input pins [x] and the output pins [y]. *)
type io = { x : (int * bool) array; y : (int * bool) array }

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

let create locked ~key_inputs =
  let x_pis = x_inputs locked ~key_inputs in
  let x_names = List.map (fun pi -> (Netlist.node locked pi).Netlist.name) x_pis in
  let solver = Solver.create () in
  let x_tbl = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace x_tbl n (Solver.new_var solver)) x_names;
  let k1 = Hashtbl.create 16 and k2 = Hashtbl.create 16 in
  List.iter
    (fun k ->
      Hashtbl.replace k1 k (Solver.new_var solver);
      Hashtbl.replace k2 k (Solver.new_var solver))
    key_inputs;
  let copy keys =
    Tseitin.encode solver locked ~shared:(fun id ->
        match input_var locked keys id with
        | Some v -> Some v
        | None -> input_var locked x_tbl id)
  in
  let vars1 = copy k1 in
  let vars2 = copy k2 in
  Tseitin.miter solver
    (List.map (fun (_, d) -> (vars1.(d), vars2.(d))) (Netlist.outputs locked));
  let outputs = Array.of_list (Netlist.outputs locked) in
  let out_index = Hashtbl.create (Array.length outputs) in
  Array.iteri (fun i (po, _) -> Hashtbl.replace out_index po i) outputs;
  {
    locked;
    key_inputs;
    solver;
    x_pis = Array.of_list x_pis;
    x_names;
    x_vars = Array.of_list (List.map (Hashtbl.find x_tbl) x_names);
    k1;
    k2;
    outputs;
    out_index;
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
  let c0 = Solver.conflicts s and p0 = Solver.propagations s in
  counted_span "attack.solve"
    ~args:[ ("iter", Cjson.Int iter) ]
    (fun () ->
      [
        ("conflicts", Cjson.Int (Solver.conflicts s - c0));
        ("propagations", Cjson.Int (Solver.propagations s - p0));
      ])
    (fun () -> Solver.solve s)

let dip t = List.mapi (fun i n -> (n, Solver.value t.solver t.x_vars.(i))) t.x_names

let conflicts t = Solver.conflicts t.solver

let io t dip reply =
  let vals = Array.make (Array.length t.outputs) (-1) in
  List.iter
    (fun (po, v) ->
      match Hashtbl.find_opt t.out_index po with
      | Some i when vals.(i) < 0 -> vals.(i) <- Bool.to_int v
      | Some _ | None -> ())
    reply;
  {
    x = Array.of_list (List.mapi (fun i (_, v) -> (t.x_pis.(i), v)) dip);
    y =
      Array.mapi
        (fun i (po, d) ->
          if vals.(i) < 0 then
            invalid_arg ("Dip_miter.io: the reply has no output " ^ po);
          (d, vals.(i) = 1))
        t.outputs;
  }

let assert_io s locked keys io =
  Tseitin.assert_io s locked ~shared:(input_var locked keys) ~inputs:io.x
    ~outputs:io.y

let constrain t io =
  assert_io t.solver t.locked t.k1 io;
  assert_io t.solver t.locked t.k2 io

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

type store = { miter : t; st_solver : Solver.t; keys : (string, int) Hashtbl.t }

let store t =
  let s = Solver.create () in
  let keys = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace keys k (Solver.new_var s)) t.key_inputs;
  { miter = t; st_solver = s; keys }

let add st io = assert_io st.st_solver st.miter.locked st.keys io

let key st =
  match Solver.solve st.st_solver with
  | Solver.Sat ->
    Some
      (List.map
         (fun k -> (k, Solver.value st.st_solver (Hashtbl.find st.keys k)))
         st.miter.key_inputs)
  | Solver.Unsat -> None
