type ctx = {
  locked : Netlist.t;
  key_inputs : string list;
  oracle : Oracle.t;
  budget : Budget.t;
  seed : int;
}

type gave_up_reason =
  | No_key_found
  | Not_applicable
  | Verification_failed

type verdict =
  | Skipped
  | Key_recovered of Key.assignment
  | Wrong_key of { key : Key.assignment; mismatches : int }
  | No_dip of { key : Key.assignment; mismatches : int }
  | Approx_key of { key : Key.assignment; error_rate : float }
  | Partial_key of { recovered : Key.assignment; unresolved : int }
  | Recovered_netlist of Netlist.t
  | Gave_up of gave_up_reason
  | Out_of_budget of Budget.reason

let gave_up_reason_name = function
  | No_key_found -> "no_key_found"
  | Not_applicable -> "not_applicable"
  | Verification_failed -> "verification_failed"

type outcome = {
  verdict : verdict;
  iterations : int;
  queries : int;
  conflicts : int;
  elapsed_s : float;
}

let verdict_name = function
  | Skipped -> "skipped"
  | Key_recovered _ -> "key_recovered"
  | Wrong_key _ -> "wrong_key"
  | No_dip _ -> "no_dip"
  | Approx_key _ -> "approx_key"
  | Partial_key _ -> "partial_key"
  | Recovered_netlist _ -> "recovered_netlist"
  | Gave_up _ -> "gave_up"
  | Out_of_budget r -> "out_of_budget_" ^ Budget.reason_name r

let gave_up_reason_of_verdict = function
  | Gave_up r -> Some (gave_up_reason_name r)
  | Skipped | Key_recovered _ | Wrong_key _ | No_dip _ | Approx_key _
  | Partial_key _ | Recovered_netlist _ | Out_of_budget _ -> None

let broken = function
  | Key_recovered _ | Approx_key _ | Recovered_netlist _ -> true
  | Skipped | Wrong_key _ | No_dip _ | Partial_key _ | Gave_up _
  | Out_of_budget _ -> false

let key_of_verdict = function
  | Key_recovered k
  | Wrong_key { key = k; _ }
  | No_dip { key = k; _ }
  | Approx_key { key = k; _ }
  | Partial_key { recovered = k; _ } -> Some k
  | Skipped | Recovered_netlist _ | Gave_up _ | Out_of_budget _ -> None

let mismatches_of_verdict = function
  | Key_recovered _ -> Some 0
  | Wrong_key { mismatches; _ } | No_dip { mismatches; _ } -> Some mismatches
  | Skipped | Approx_key _ | Partial_key _ | Recovered_netlist _ | Gave_up _
  | Out_of_budget _ -> None

type entry = {
  name : string;
  threat_model : string;
  budget_unit : string;
  runner : ctx -> verdict * int;
}

(* Exhaustion inside the extracted-key verification is still exhaustion:
   the wrapper turns the raise into [Out_of_budget]. *)
let verify ctx ~locked ~key_inputs key =
  Sat_attack.verify_key ~seed:ctx.seed ~locked ~key_inputs ~oracle:ctx.oracle
    key

let of_sat ctx ?(locked = None) ?(key_inputs = None) (o : Sat_attack.outcome)
    =
  let locked = Option.value locked ~default:ctx.locked in
  let key_inputs = Option.value key_inputs ~default:ctx.key_inputs in
  let v =
    match o.Sat_attack.status with
    | Sat_attack.Key_recovered key ->
      let mismatches = verify ctx ~locked ~key_inputs key in
      if mismatches = 0 then Key_recovered key
      else Wrong_key { key; mismatches }
    | Sat_attack.Unsat_at_first_iteration key ->
      No_dip { key; mismatches = verify ctx ~locked ~key_inputs key }
    | Sat_attack.Budget_exhausted ->
      Out_of_budget
        (Option.value (Budget.tripped ctx.budget) ~default:Budget.Iterations)
  in
  (v, o.Sat_attack.conflicts)

let run_none _ctx = (Skipped, 0)

let run_sat ctx =
  of_sat ctx
    (Sat_attack.exec ~budget:ctx.budget ~locked:ctx.locked
       ~key_inputs:ctx.key_inputs ~oracle:ctx.oracle ())

let run_appsat ctx =
  let o =
    Appsat.exec ~seed:ctx.seed ~budget:ctx.budget ~locked:ctx.locked
      ~key_inputs:ctx.key_inputs ~oracle:ctx.oracle ()
  in
  let v =
    if o.Appsat.exact then begin
      let mismatches =
        verify ctx ~locked:ctx.locked ~key_inputs:ctx.key_inputs o.Appsat.key
      in
      if mismatches = 0 then Key_recovered o.Appsat.key
      else Wrong_key { key = o.Appsat.key; mismatches }
    end
    else
      match Budget.tripped ctx.budget with
      | Some r when o.Appsat.error_rate > 0.01 -> Out_of_budget r
      | Some _ | None ->
        Approx_key { key = o.Appsat.key; error_rate = o.Appsat.error_rate }
  in
  (v, 0)

let run_brute ctx =
  let o =
    Brute_force.exec ~seed:ctx.seed ~budget:ctx.budget ~locked:ctx.locked
      ~key_inputs:ctx.key_inputs ~oracle:ctx.oracle ()
  in
  ( (match o.Brute_force.found with
    | Some key -> Key_recovered key
    | None -> Gave_up No_key_found),
    0 )

let run_sensitization ctx =
  let o =
    Sensitization.exec ~seed:ctx.seed ~budget:ctx.budget ~locked:ctx.locked
      ~key_inputs:ctx.key_inputs ~oracle:ctx.oracle ()
  in
  ( (match o.Sensitization.unresolved with
    | [] -> Key_recovered o.Sensitization.recovered
    | u ->
      Partial_key
        { recovered = o.Sensitization.recovered; unresolved = List.length u }),
    0 )

let run_removal ctx =
  let o =
    Removal_attack.exec ~seed:ctx.seed ~budget:ctx.budget ctx.locked
      ~oracle:ctx.oracle
  in
  ( (match o.Removal_attack.restored with
    | Some net when o.Removal_attack.success -> Recovered_netlist net
    | Some _ -> Gave_up Verification_failed
    | None -> Gave_up Not_applicable),
    0 )

let run_enhanced_removal ctx =
  let rm, o =
    Enhanced_removal.exec ~budget:ctx.budget ctx.locked ~oracle:ctx.oracle ()
  in
  of_sat ctx
    ~locked:(Some rm.Enhanced_removal.net)
    ~key_inputs:(Some rm.Enhanced_removal.new_key_inputs)
    o

let run_tcf2 ctx =
  let o =
    Tcf.exec ~budget:ctx.budget ~locked:ctx.locked ~key_inputs:ctx.key_inputs
      ~oracle:ctx.oracle ()
  in
  (* the two-frame key must also explain the single-frame chip *)
  of_sat ctx o.Tcf.sat

let run_scan ctx =
  let verdicts =
    Scan_attack.exec ~seed:ctx.seed ~unknown:ctx.key_inputs ~budget:ctx.budget
      ~stripped_comb:ctx.locked ~oracle:ctx.oracle ()
  in
  ( (if verdicts = [] then Gave_up Not_applicable
     else
       match Scan_attack.decrypt ~stripped_comb:ctx.locked verdicts with
       | Some net -> Recovered_netlist net
       | None -> Gave_up Verification_failed),
    0 )

let registry =
  [
    {
      name = "none";
      threat_model = "baseline: locked netlist only, no oracle use";
      budget_unit = "-";
      runner = run_none;
    };
    {
      name = "sat";
      threat_model = "netlist + I/O oracle (Subramanyan et al.)";
      budget_unit = "DIP iterations";
      runner = run_sat;
    };
    {
      name = "appsat";
      threat_model = "netlist + I/O oracle, approximate key accepted";
      budget_unit = "DIP iterations";
      runner = run_appsat;
    };
    {
      name = "brute";
      threat_model = "netlist + I/O oracle, exhaustive key search";
      budget_unit = "candidate keys";
      runner = run_brute;
    };
    {
      name = "sensitization";
      threat_model = "netlist + I/O oracle, per-bit propagation";
      budget_unit = "key bits";
      runner = run_sensitization;
    };
    {
      name = "removal";
      threat_model = "netlist + I/O oracle, skew-guided excision";
      budget_unit = "candidate signals";
      runner = run_removal;
    };
    {
      name = "enhanced-removal";
      threat_model = "netlist + I/O oracle, GK located and remodelled";
      budget_unit = "DIP iterations";
      runner = run_enhanced_removal;
    };
    {
      name = "tcf2";
      threat_model = "netlist + I/O oracle, two-frame (launch/capture) SAT";
      budget_unit = "DIP iterations";
      runner = run_tcf2;
    };
    {
      name = "scan";
      threat_model = "stripped netlist + scan-chain capture oracle";
      budget_unit = "located GKs";
      runner = run_scan;
    };
  ]

let names () = List.map (fun e -> e.name) registry
let find name = List.find_opt (fun e -> e.name = name) registry

let find_exn name =
  match find name with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Attack.run: unknown attack %S (known: %s)" name
         (String.concat ", " (names ())))

let m_runs = Obs.Metrics.counter "attack.runs"
let h_elapsed = Obs.Metrics.histogram "attack.elapsed_s"

let run ?budget ?seed ~name ~locked ~key_inputs ~oracle () =
  let e = find_exn name in
  let budget =
    match budget with
    | Some b -> b
    | None -> Budget.create ~max_iterations:4096 ()
  in
  let seed = match seed with Some s -> s | None -> Fuzz_seed.value () in
  let oracle = Oracle.with_budget budget oracle in
  let ctx = { locked; key_inputs; oracle; budget; seed } in
  Obs.Metrics.incr m_runs;
  let sp =
    Obs.Trace.span_begin
      ~args:
        [
          ("attack", Cjson.Str name);
          ("netlist", Cjson.Str (Netlist.name locked));
          ("key_inputs", Cjson.Int (List.length key_inputs));
          ("seed", Cjson.Int seed);
        ]
      "attack.run"
  in
  let t0 = Unix.gettimeofday () in
  let q0 = Oracle.queries oracle in
  match (try e.runner ctx with Budget.Exhausted r -> (Out_of_budget r, 0)) with
  | verdict, conflicts ->
    let outcome =
      {
        verdict;
        iterations = Budget.iterations budget;
        queries = Oracle.queries oracle - q0;
        conflicts;
        (* clamped so an attack that bails before its first iteration
           (e.g. scan on a lock without glitch key-gates) still records
           a positive wall-clock instead of a 0.0 that reads like a
           missing measurement *)
        elapsed_s = Float.max 1e-6 (Unix.gettimeofday () -. t0);
      }
    in
    Obs.Metrics.observe h_elapsed outcome.elapsed_s;
    Obs.Trace.span_end
      ~args:
        [
          ("verdict", Cjson.Str (verdict_name outcome.verdict));
          ("iterations", Cjson.Int outcome.iterations);
          ("queries", Cjson.Int outcome.queries);
          ("conflicts", Cjson.Int outcome.conflicts);
          ("elapsed_s", Cjson.Float outcome.elapsed_s);
        ]
      sp;
    outcome
  | exception ex ->
    (* non-budget exception (Invalid_argument and friends): close the
       span so a trace of a failing run still validates *)
    Obs.Trace.span_end ~args:[ ("verdict", Cjson.Str "exception") ] sp;
    raise ex

let markdown_table () =
  let b = Buffer.create 512 in
  Buffer.add_string b "| Attack | Threat model | Budget unit |\n";
  Buffer.add_string b "|---|---|---|\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "| `%s` | %s | %s |\n" e.name e.threat_model
           e.budget_unit))
    registry;
  Buffer.contents b
