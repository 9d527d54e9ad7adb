type oracle = (string * bool) list -> (string * bool) list

type status =
  | Key_recovered of Key.assignment
  | Unsat_at_first_iteration of Key.assignment
  | Budget_exhausted

type outcome = {
  status : status;
  iterations : int;
  dips : (string * bool) list list;
  conflicts : int;
}

let oracle_of_netlist ?(partial = false) net =
  Oracle.as_fn (Oracle.of_netlist ~partial net)

(* Split the locked netlist's inputs into X inputs and key inputs. *)
let classify_inputs locked key_inputs =
  let is_key = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace is_key k ()) key_inputs;
  List.partition
    (fun pi -> not (Hashtbl.mem is_key (Netlist.node locked pi).Netlist.name))
    (Netlist.inputs locked)

let exec ~budget ~locked ~key_inputs ~oracle () =
  if Netlist.ffs locked <> [] then
    invalid_arg "Sat_attack.run: locked netlist must be combinational";
  List.iter
    (fun k ->
      match Netlist.find locked k with
      | Some id when (Netlist.node locked id).Netlist.kind = Netlist.Input -> ()
      | Some _ -> invalid_arg ("Sat_attack.run: " ^ k ^ " is not an input")
      | None -> invalid_arg ("Sat_attack.run: no key input " ^ k))
    key_inputs;
  (* An already-expired budget (deadline_s <= 0) yields a structured
     Budget_exhausted before any encoding, solving or oracle work. *)
  match Budget.check budget with
  | exception Budget.Exhausted _ ->
    { status = Budget_exhausted; iterations = 0; dips = []; conflicts = 0 }
  | () ->
  let x_pis, _key_pis = classify_inputs locked key_inputs in
  let x_names = List.map (fun pi -> (Netlist.node locked pi).Netlist.name) x_pis in
  let solver = Solver.create () in
  (* Shared X variables and the two key vectors. *)
  let x_vars = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace x_vars n (Solver.new_var solver)) x_names;
  let k1_vars = Hashtbl.create 16 and k2_vars = Hashtbl.create 16 in
  List.iter
    (fun k ->
      Hashtbl.replace k1_vars k (Solver.new_var solver);
      Hashtbl.replace k2_vars k (Solver.new_var solver))
    key_inputs;
  let shared_map key_tbl ?fix_x () id =
    let nd = Netlist.node locked id in
    if nd.Netlist.kind <> Netlist.Input then None
    else
      match Hashtbl.find_opt key_tbl nd.Netlist.name with
      | Some v -> Some v
      | None -> (
        match fix_x with
        | None -> Hashtbl.find_opt x_vars nd.Netlist.name
        | Some _ -> None (* fresh var, pinned below *))
  in
  let encode_copy key_tbl = Tseitin.encode solver locked ~shared:(shared_map key_tbl ()) in
  let vars1 = encode_copy k1_vars in
  let vars2 = encode_copy k2_vars in
  Tseitin.miter solver
    (List.map (fun (_, d) -> (vars1.(d), vars2.(d))) (Netlist.outputs locked));
  let outputs = Array.of_list (Netlist.outputs locked) in
  let x_pis = Array.of_list x_pis in
  (* A DIP's X values and the oracle's outputs as arrays aligned with
     [x_pis] (the order the DIP is read in) and [outputs]. *)
  let io_pins dip outs =
    let out_vals = Hashtbl.create (Array.length outputs) in
    List.iter
      (fun (po, v) -> if not (Hashtbl.mem out_vals po) then Hashtbl.add out_vals po v)
      outs;
    ( Array.of_list (List.map snd dip),
      Array.map (fun (po, _) -> Hashtbl.find out_vals po) outputs )
  in
  (* Pin one circuit copy ([vars]) to a DIP's X values and outputs, each
     array aligned with [x_pis] / [outputs]. *)
  let pin s vars (x_vals, out_vals) =
    Array.iteri
      (fun i pi -> ignore (Solver.add_clause s [ Lit.make vars.(pi) x_vals.(i) ]))
      x_pis;
    Array.iteri
      (fun i (_, d) -> ignore (Solver.add_clause s [ Lit.make vars.(d) out_vals.(i) ]))
      outputs
  in
  (* Add one I/O constraint copy (circuit at DIP X with key K forced to
     output Y) for a key vector. *)
  let add_constraint key_tbl pins =
    let vars = Tseitin.encode solver locked ~shared:(shared_map key_tbl ~fix_x:() ()) in
    pin solver vars pins
  in
  (* (DIP, its pin arrays), latest first *)
  let dips = ref [] in
  let extract_key () =
    (* The K1 vector of a model of all accumulated constraints.  Build a
       fresh solver holding only the constraint copies. *)
    let s2 = Solver.create () in
    let k_vars = Hashtbl.create 16 in
    List.iter (fun k -> Hashtbl.replace k_vars k (Solver.new_var s2)) key_inputs;
    let shared id =
      let nd = Netlist.node locked id in
      if nd.Netlist.kind = Netlist.Input then Hashtbl.find_opt k_vars nd.Netlist.name
      else None
    in
    List.iter
      (fun (_, pins) -> pin s2 (Tseitin.encode s2 locked ~shared) pins)
      (List.rev !dips);
    match Solver.solve s2 with
    | Solver.Sat ->
      List.map (fun k -> (k, Solver.value s2 (Hashtbl.find k_vars k))) key_inputs
    | Solver.Unsat ->
      (* Impossible unless the oracle is inconsistent with the netlist. *)
      List.map (fun k -> (k, false)) key_inputs
  in
  let finish status iter =
    {
      status;
      iterations = iter;
      dips = List.rev_map fst !dips;
      conflicts = Solver.conflicts solver;
    }
  in
  let rec loop iter =
    Budget.check budget;
    let verdict =
      Obs.Trace.with_span
        ~args:[ ("iter", Cjson.Int iter) ]
        "attack.solve"
        (fun () -> Solver.solve solver)
    in
    match verdict with
    | Solver.Unsat ->
      let key = extract_key () in
      let status =
        if iter = 0 then Unsat_at_first_iteration key else Key_recovered key
      in
      finish status iter
    | Solver.Sat ->
      (* charge the iteration only once a DIP exists, so the iteration
         count always equals the number of DIPs consumed.  The span is
         opened only after a successful tick and closed before the
         recursive call, so attack.iteration spans in a trace count the
         charged iterations exactly (no nesting, no span for a tick
         that tripped the budget). *)
      Budget.tick budget;
      (Obs.Trace.with_span
         ~args:
           [ ("iter", Cjson.Int iter); ("dips", Cjson.Int (List.length !dips)) ]
         "attack.iteration"
       @@ fun () ->
       let dip =
         List.map
           (fun n -> (n, Solver.value solver (Hashtbl.find x_vars n)))
           x_names
       in
       let pins = io_pins dip (Oracle.query oracle dip) in
       dips := (dip, pins) :: !dips;
       add_constraint k1_vars pins;
       add_constraint k2_vars pins);
      loop (iter + 1)
  in
  (* On mid-iteration exhaustion the iteration was already charged
     (ticked) and its span emitted, so report Budget.iterations — keeps
     the outcome's count equal to both the budget telemetry and the
     number of attack.iteration spans in a trace. *)
  try loop 0
  with Budget.Exhausted _ -> finish Budget_exhausted (Budget.iterations budget)

let run ?(max_iterations = 4096) ~locked ~key_inputs ~oracle () =
  exec
    ~budget:(Budget.create ~max_iterations ())
    ~locked ~key_inputs
    ~oracle:(Oracle.of_fn oracle)
    ()

let verify_key_o ?(samples = 64) ?seed ~locked ~key_inputs ~oracle key =
  let seed = match seed with Some s -> s | None -> Fuzz_seed.value () in
  let rng = Random.State.make [| seed; 0x5646 |] in
  let x_pis, _ = classify_inputs locked key_inputs in
  let x_names = List.map (fun pi -> (Netlist.node locked pi).Netlist.name) x_pis in
  let dips = ref [] in
  for _ = 1 to samples do
    dips := List.map (fun n -> (n, Random.State.bool rng)) x_names :: !dips
  done;
  let dips = List.rev !dips in
  (* the chip may expose pins the locked view lacks (and vice versa) —
     verification drives the pins it can name *)
  let expected = Oracle.query_batch (Oracle.relax oracle) dips in
  let locked_o = Oracle.of_netlist ~partial:true locked in
  let got = Oracle.query_batch locked_o (List.map (fun d -> d @ key) dips) in
  List.fold_left2
    (fun mismatches exp g ->
      let differs =
        List.exists
          (fun (po, v) ->
            match List.assoc_opt po g with Some w -> v <> w | None -> true)
          exp
      in
      if differs then mismatches + 1 else mismatches)
    0 expected got

let verify_key ?samples ?seed ~locked ~key_inputs ~oracle key =
  verify_key_o ?samples ?seed ~locked ~key_inputs ~oracle:(Oracle.of_fn oracle)
    key
