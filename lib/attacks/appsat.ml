type outcome = {
  key : Key.assignment;
  error_rate : float;
  dips : int;
  random_queries : int;
  exact : bool;
}

(* A self-contained DIP engine: one miter solver plus a parallel
   "candidate" solver holding only the accumulated I/O constraints, from
   which the current best key is extracted between iterations. *)
let exec ?(check_every = 4) ?(error_threshold = 0.01) ?(queries_per_check = 50)
    ?seed ~budget ~locked ~key_inputs ~oracle () =
  if Netlist.ffs locked <> [] then
    invalid_arg "Appsat.run: locked netlist must be combinational";
  (* An already-expired budget (deadline_s <= 0) yields a structured
     pessimistic outcome before any encoding, solving or oracle work. *)
  match Budget.check budget with
  | exception Budget.Exhausted _ ->
    {
      key = List.map (fun k -> (k, false)) key_inputs;
      error_rate = 1.0;
      dips = 0;
      random_queries = 0;
      exact = false;
    }
  | () ->
  let seed = match seed with Some s -> s | None -> Fuzz_seed.value () in
  let rng = Random.State.make [| seed; 0x4150 |] in
  let x_pis =
    List.filter
      (fun pi ->
        not (List.mem (Netlist.node locked pi).Netlist.name key_inputs))
      (Netlist.inputs locked)
  in
  let x_names =
    List.map (fun pi -> (Netlist.node locked pi).Netlist.name) x_pis
  in
  (* miter solver *)
  let solver = Solver.create () in
  let x_vars = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace x_vars n (Solver.new_var solver)) x_names;
  let k1 = Hashtbl.create 16 and k2 = Hashtbl.create 16 in
  List.iter
    (fun k ->
      Hashtbl.replace k1 k (Solver.new_var solver);
      Hashtbl.replace k2 k (Solver.new_var solver))
    key_inputs;
  let shared tbl ~with_x id =
    let nd = Netlist.node locked id in
    if nd.Netlist.kind <> Netlist.Input then None
    else
      match Hashtbl.find_opt tbl nd.Netlist.name with
      | Some v -> Some v
      | None -> if with_x then Hashtbl.find_opt x_vars nd.Netlist.name else None
  in
  let vars1 = Tseitin.encode solver locked ~shared:(shared k1 ~with_x:true) in
  let vars2 = Tseitin.encode solver locked ~shared:(shared k2 ~with_x:true) in
  Tseitin.miter solver
    (List.map (fun (_, d) -> (vars1.(d), vars2.(d))) (Netlist.outputs locked));
  (* candidate solver: constraints only *)
  let cand = Solver.create () in
  let kc = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace kc k (Solver.new_var cand)) key_inputs;
  let x_pis = Array.of_list x_pis in
  let outputs = Array.of_list (Netlist.outputs locked) in
  let add_io_constraint dip outs =
    (* the DIP's X values (read in [x_names] order) and the oracle's
       outputs, as arrays aligned with [x_pis] and [outputs] *)
    let x_vals = Array.of_list (List.map snd dip) in
    let out_tbl = Hashtbl.create (Array.length outputs) in
    List.iter
      (fun (po, v) -> if not (Hashtbl.mem out_tbl po) then Hashtbl.add out_tbl po v)
      outs;
    let out_vals = Array.map (fun (po, _) -> Hashtbl.find out_tbl po) outputs in
    let pin s vars =
      Array.iteri
        (fun i pi -> ignore (Solver.add_clause s [ Lit.make vars.(pi) x_vals.(i) ]))
        x_pis;
      Array.iteri
        (fun i (_, d) -> ignore (Solver.add_clause s [ Lit.make vars.(d) out_vals.(i) ]))
        outputs
    in
    (* both key copies of the miter, and the candidate store *)
    pin solver (Tseitin.encode solver locked ~shared:(shared k1 ~with_x:false));
    pin solver (Tseitin.encode solver locked ~shared:(shared k2 ~with_x:false));
    pin cand (Tseitin.encode cand locked ~shared:(shared kc ~with_x:false))
  in
  let extract_candidate () =
    match Solver.solve cand with
    | Solver.Sat ->
      Some
        (List.map
           (fun k -> (k, Solver.value cand (Hashtbl.find kc k)))
           key_inputs)
    | Solver.Unsat -> None
  in
  let random_dip () = List.map (fun n -> (n, Random.State.bool rng)) x_names in
  let locked_o = Oracle.of_netlist locked in
  let queries = ref 0 in
  (* estimate the error on a batch of random queries (one 63-lane engine
     pass per word on each side) and feed failing queries back as
     constraints *)
  let estimate key =
    Obs.Trace.with_span
      ~args:[ ("queries", Cjson.Int queries_per_check) ]
      "appsat.estimate"
    @@ fun () ->
    let dips = ref [] in
    for _ = 1 to queries_per_check do
      dips := random_dip () :: !dips
    done;
    let dips = List.rev !dips in
    queries := !queries + queries_per_check;
    let expected = Oracle.query_batch oracle dips in
    let got = Oracle.query_batch locked_o (List.map (fun d -> d @ key) dips) in
    let errors = ref 0 in
    List.iter2
      (fun (dip, exp) g ->
        let fails =
          List.exists
            (fun (po, v) ->
              match List.assoc_opt po g with Some w -> v <> w | None -> false)
            exp
        in
        if fails then begin
          incr errors;
          add_io_constraint dip exp
        end)
      (List.combine dips expected)
      got;
    float_of_int !errors /. float_of_int queries_per_check
  in
  let fallback = List.map (fun k -> (k, false)) key_inputs in
  let exhausted dips =
    let key = Option.value (extract_candidate ()) ~default:fallback in
    let error_rate =
      (* a deadline or query cap may already be spent: report the
         pessimistic bound rather than burn more budget *)
      match estimate key with
      | e -> e
      | exception Budget.Exhausted _ -> 1.0
    in
    { key; error_rate; dips; random_queries = !queries; exact = false }
  in
  let rec loop dips =
    Budget.check budget;
    let verdict =
      Obs.Trace.with_span
        ~args:[ ("iter", Cjson.Int dips) ]
        "attack.solve"
        (fun () -> Solver.solve solver)
    in
    match verdict with
    | Solver.Unsat ->
      let key = Option.value (extract_candidate ()) ~default:fallback in
      { key; error_rate = 0.0; dips; random_queries = !queries; exact = true }
    | Solver.Sat ->
      (* charge the iteration only once a DIP exists (see Sat_attack);
         the span opens after a successful tick and closes before any
         recursion, so attack.iteration spans count charged iterations
         exactly *)
      Budget.tick budget;
      (Obs.Trace.with_span
         ~args:[ ("iter", Cjson.Int dips); ("dips", Cjson.Int dips) ]
         "attack.iteration"
       @@ fun () ->
       let dip =
         List.map
           (fun n -> (n, Solver.value solver (Hashtbl.find x_vars n)))
           x_names
       in
       let outs = Oracle.query oracle dip in
       add_io_constraint dip outs);
      let dips = dips + 1 in
      if dips mod check_every = 0 then begin
        match extract_candidate () with
        | None -> loop dips
        | Some key ->
          let err = estimate key in
          if err <= error_threshold then
            { key; error_rate = err; dips; random_queries = !queries; exact = false }
          else loop dips
      end
      else loop dips
  in
  let start = Budget.iterations budget in
  try loop 0
  with Budget.Exhausted _ -> exhausted (Budget.iterations budget - start)

let run ?(max_iterations = 512) ?check_every ?error_threshold
    ?queries_per_check ?seed ~locked ~key_inputs ~oracle () =
  exec ?check_every ?error_threshold ?queries_per_check ?seed
    ~budget:(Budget.create ~max_iterations ())
    ~locked ~key_inputs
    ~oracle:(Oracle.of_fn oracle)
    ()
