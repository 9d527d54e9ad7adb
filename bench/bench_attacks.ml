(* Attack-framework benchmarks: oracle query throughput (batched
   engine path vs. one query at a time, plus both remote paths through
   an in-process gklockd over a loopback unix socket), per-attack
   wall time for every registry entry on two benchmarks, the cost
   and mismatch count of one key verification ([Sat_attack.verify_key])
   on GK-8 s5378/s13207/s38417 and XOR-16 s5378, and where a
   SARLock-6 s1238 SAT attack's DIP loop spends its time.  Prints
   human-readable tables and writes machine-readable results to
   BENCH_attacks.json (or the path given as the last argument):

     dune exec bench/bench_attacks.exe              # or: make bench-attacks
     dune exec bench/bench_attacks.exe -- --smoke   # CI-sized, seconds

   All four oracle paths are equivalence-checked against the naive
   reference walk [Ref_sim.eval_comb] on the same query set before being
   timed, and the run fails if the batched path loses to one query at a
   time. *)

(* The reference reply to [q]: unmentioned sources read false. *)
let reference_query net q =
  let value = Hashtbl.of_seq (List.to_seq q) in
  let values =
    Ref_sim.eval_comb net (fun id ->
        Option.value ~default:false
          (Hashtbl.find_opt value (Netlist.node net id).Netlist.name))
  in
  List.map (fun (po, d) -> (po, values.(d))) (Netlist.outputs net)

(* ----- measurement ----- *)

(* Answering 1008 queries on a 1.7k-output circuit materializes tens of
   megabytes of response lists per call, whichever oracle path builds
   them.  Left at the default 256k-word nursery, every call devolves
   into promotion work and major-GC slices whose timing swamps the
   engine difference being measured, so the bench (a) sizes the nursery
   to the workload once at startup and (b) reports the median rep, which
   a stray major slice cannot drag around. *)
let () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 23 }

let median_rep_s ?(min_reps = 1) ~min_time f =
  f ();
  (* warm-up *)
  let samples = ref [] in
  let reps = ref 0 in
  let t0 = Unix.gettimeofday () in
  let elapsed = ref 0.0 in
  while !elapsed < min_time || !reps < min_reps do
    (* each rep starts from an identical heap: nursery empty, major heap
       holding live data only.  The previous rep's garbage is collected
       off the clock, instead of as a pseudo-random major slice landing
       inside whichever rep the pacing happens to pick *)
    Gc.compact ();
    let t1 = Unix.gettimeofday () in
    f ();
    incr reps;
    let t2 = Unix.gettimeofday () in
    samples := (t2 -. t1) :: !samples;
    elapsed := t2 -. t0
  done;
  let sorted = List.sort compare !samples in
  List.nth sorted (List.length sorted / 2)

(* The remote columns cross the OS scheduler twice per query (client
   blocks, server thread wakes, and back).  On a contended or single-CPU
   host the handoff is bimodal — a rep either gets fast wakeups
   throughout or eats scheduling delay on most round trips — and the
   median tracks whichever mode the run happened to land in, which made
   the perf gate flap.  Scheduling can only ever ADD time, so the
   fastest rep is the measurement; same reasoning as the interleaved
   best-of windows in bench_eval. *)
let best_rep_s ?(min_reps = 1) ~min_time f =
  f ();
  (* warm-up *)
  let best = ref Float.infinity in
  let reps = ref 0 in
  let t0 = Unix.gettimeofday () in
  let elapsed = ref 0.0 in
  while !elapsed < min_time || !reps < min_reps do
    Gc.compact ();
    let t1 = Unix.gettimeofday () in
    f ();
    incr reps;
    let t2 = Unix.gettimeofday () in
    if t2 -. t1 < !best then best := t2 -. t1;
    elapsed := t2 -. t0
  done;
  !best

type oracle_row = {
  o_bench : string;
  o_cells : int;
  o_queries : int;
  o_scalar_qps : float;
  o_batch_qps : float;
  o_remote_scalar_qps : float;  (* one Query frame round trip per query *)
  o_remote_batch_qps : float;  (* whole query set in one Query_batch frame *)
}

let bench_oracle ~min_time ~n_queries net name cells =
  let comb, _ = Combinationalize.run net in
  (* memoization off: every timed query is a real evaluation *)
  let oracle = Oracle.of_netlist ~memo:false comb in
  let names = Oracle.input_names oracle in
  let rng = Random.State.make [| 0xA77; Hashtbl.hash name |] in
  let dips =
    List.init n_queries (fun _ ->
        List.map (fun n -> (n, Random.State.bool rng)) names)
  in
  (* equivalence first: every path must agree with the reference walk *)
  let batch_results = Oracle.query_batch oracle dips in
  List.iter2
    (fun dip batched ->
      if reference_query comb dip <> batched then
        failwith (name ^ ": batched oracle disagrees with Ref_sim");
      if Oracle.query oracle dip <> batched then
        failwith (name ^ ": batched oracle disagrees with scalar query"))
    dips batch_results;
  (* the same query set through an in-process gklockd over a loopback
     unix socket: memoization off on both ends so every timed query
     crosses the wire and really evaluates.  The serial client is the
     server's only connection, so each scalar query flushes as soon as
     it arrives: the scalar column times the round trip, not the
     coalescing delay *)
  let sock = Filename.temp_file "gklockd_bench" ".sock" in
  Sys.remove sock;
  let server =
    Gkd_server.create
      ~config:{ Gkd_server.default_config with Gkd_server.oracle_memo = false }
      ~listen:(Frame_io.Unix_path sock)
      [ (name, comb) ]
  in
  Gkd_server.start server;
  let remote_handle =
    Remote_oracle.connect ~client:"bench" ~memo:false
      (Frame_io.Unix_path sock)
  in
  let remote = Remote_oracle.oracle remote_handle in
  List.iter2
    (fun dip batched ->
      if Oracle.query remote dip <> batched then
        failwith (name ^ ": remote oracle disagrees with batched eval"))
    dips batch_results;
  if Oracle.query_batch remote dips <> batch_results then
    failwith (name ^ ": remote batched oracle disagrees with batched eval");
  Printf.printf "equivalence %-8s OK (%d queries x 4 paths)\n%!" name
    n_queries;
  (* on large circuits one engine-path call takes about as long as a
     major-GC slice, so a single rep is a coin flip on whether it pays
     one; take the median of at least [min_reps] calls *)
  let qps ?min_reps f =
    float_of_int n_queries /. median_rep_s ?min_reps ~min_time f
  in
  let min_reps = 7 in
  let row =
    {
      o_bench = name;
      o_cells = cells;
      o_queries = n_queries;
    (* every path is timed producing the full response set
       ([List.map], not [List.iter]+[ignore]): [query_batch] necessarily
       keeps every response live until it returns, so a scalar loop that
       dropped each response as it went would be measured doing strictly
       less retention work than the batch it is compared against *)
      o_scalar_qps =
        qps ~min_reps (fun () ->
            ignore (List.map (fun d -> Oracle.query oracle d) dips));
      o_batch_qps =
        qps ~min_reps (fun () -> ignore (Oracle.query_batch oracle dips));
      o_remote_scalar_qps =
        (let s =
           best_rep_s ~min_reps ~min_time (fun () ->
               ignore (List.map (fun d -> Oracle.query remote d) dips))
         in
         float_of_int n_queries /. s);
      o_remote_batch_qps =
        (let s =
           best_rep_s ~min_reps ~min_time (fun () ->
               ignore (Oracle.query_batch remote dips))
         in
         float_of_int n_queries /. s);
    }
  in
  Remote_oracle.close remote_handle;
  Gkd_server.stop server;
  if Sys.file_exists sock then Sys.remove sock;
  row

(* ----- per-attack wall time ----- *)

type attack_row = {
  a_bench : string;
  a_attack : string;
  a_verdict : string;
  a_iterations : int;
  a_queries : int;
  a_conflicts : int;
  a_elapsed_s : float;
  a_gave_up_reason : string option;
}

let bench_attacks ~max_iterations ~deadline_s net name =
  let comb, _ = Combinationalize.run net in
  let lk = Xor_lock.lock ~seed:42 comb ~n_keys:6 in
  List.map
    (fun attack ->
      let o =
        Attack.run
          ~budget:(Budget.create ~max_iterations ~deadline_s ())
          ~seed:42 ~name:attack ~locked:lk.Locked.net
          ~key_inputs:lk.Locked.key_inputs
          (* fresh oracle per attack: the memo must not let one attack's
             queries answer the next one's for free *)
          ~oracle:(Oracle.of_netlist comb)
          ()
      in
      {
        a_bench = name;
        a_attack = attack;
        a_verdict = Attack.verdict_name o.Attack.verdict;
        a_iterations = o.Attack.iterations;
        a_queries = o.Attack.queries;
        a_conflicts = o.Attack.conflicts;
        a_elapsed_s = o.Attack.elapsed_s;
        a_gave_up_reason = Attack.gave_up_reason_of_verdict o.Attack.verdict;
      })
    (Attack.names ())

(* ----- key verification ----- *)

type verify_row = {
  v_name : string;
  v_ms : float;  (* median rep of one 64-sample [verify_key] call *)
  v_mismatches : int;
}

(* One [Sat_attack.verify_key] call, as every [sat] verdict ends: the
   chip is a memo-less netlist oracle built once, so every rep evaluates
   all 64 vectors on both sides. *)
let bench_verify ~min_time name ~chip ~locked ~key_inputs key =
  let oracle = Oracle.of_netlist ~memo:false chip in
  let call () = Sat_attack.verify_key ~seed:1 ~locked ~key_inputs ~oracle key in
  let mismatches = call () in
  let s = median_rep_s ~min_reps:7 ~min_time (fun () -> ignore (call ())) in
  { v_name = name; v_ms = s *. 1000.0; v_mismatches = mismatches }

(* GK-8 at lock seed 1 with the key the SAT attack leaves (read from the
   DIP miter after its UNSAT first solve), as in the paper's Sec. VI
   experiment, and XOR-16 on s5378 with one key bit flipped. *)
let verify_rows ~min_time =
  let gk8 bname =
    let spec = Option.get (Benchmarks.find_spec bname) in
    let net = Benchmarks.load spec in
    let clock_ps = Sta.clock_for net ~margin:spec.Benchmarks.clk_margin in
    let d = Insertion.lock ~seed:1 net ~clock_ps ~n_gks:8 in
    let stripped, key_inputs = Insertion.strip_keygens d in
    let locked = fst (Combinationalize.run stripped) in
    let chip = fst (Combinationalize.run net) in
    let o =
      Sat_attack.exec ~budget:(Budget.unlimited ()) ~locked ~key_inputs
        ~oracle:(Oracle.of_netlist chip) ()
    in
    match o.Sat_attack.status with
    | Sat_attack.Unsat_at_first_iteration key ->
      bench_verify ~min_time ("gk8-" ^ bname) ~chip ~locked ~key_inputs key
    | _ -> failwith (bname ^ ": GK-8 left a DIP")
  in
  let xor16 =
    let chip = fst (Combinationalize.run (Benchmarks.by_name "s5378")) in
    let lk = Xor_lock.lock ~seed:5 chip ~n_keys:16 in
    let key_inputs = lk.Locked.key_inputs in
    bench_verify ~min_time "xor16-s5378-flip1" ~chip ~locked:lk.Locked.net ~key_inputs
      (Key.flip lk.Locked.correct_key (List.hd key_inputs))
  in
  List.map gk8 [ "s5378"; "s13207"; "s38417" ] @ [ xor16 ]

(* ----- the DIP loop ----- *)

type dip_row = {
  d_name : string;
  d_seed : int;  (* SARLock lock seed *)
  d_dips : int;
  (* solver counts: after [Dip_miter.create], then after the attack *)
  d_miter_vars : int;
  d_miter_clauses : int;
  d_vars : int;
  d_clauses : int;
  d_conflicts : int;  (* every solve's, the key read's too *)
  d_propagations : int;
  (* median ms per attack *)
  d_create_ms : float;
  d_solve_ms : float;
  d_constrain_ms : float;
  d_rest_ms : float;  (* DIP read-out, chip queries, key read *)
  d_attack_ms : float;  (* one whole [Attack.run], key verification included *)
}

let now = Unix.gettimeofday

(* [Sat_attack.exec]'s DIP loop, driven through [Dip_miter] with a clock
   around each phase: the counts and the (create, solve, constrain,
   rest) seconds of one attack. *)
let dip_attack ~locked ~key_inputs ~chip =
  let oracle = Oracle.of_netlist chip in
  let t0 = now () in
  let m = Dip_miter.create locked ~key_inputs in
  let create = now () -. t0 in
  let s = Dip_miter.solver m in
  let miter = (Solver.num_vars s, Solver.num_clauses s) in
  let solve = ref 0.0 and constrain = ref 0.0 in
  let rec loop iter =
    let t = now () in
    let r = Dip_miter.solve m ~iter in
    solve := !solve +. (now () -. t);
    match r with
    | Solver.Unsat ->
      ignore (Dip_miter.key m);
      iter
    | Solver.Sat ->
      let dip = Dip_miter.dip m in
      let reply = Oracle.query oracle dip in
      let t = now () in
      Dip_miter.constrain m (Dip_miter.io m dip reply);
      constrain := !constrain +. (now () -. t);
      loop (iter + 1)
  in
  let dips = loop 0 in
  let total = now () -. t0 in
  let counts =
    ( dips, miter, Solver.num_vars s, Solver.num_clauses s, Solver.conflicts s,
      Solver.propagations s )
  in
  (counts, [| create; !solve; !constrain; total -. create -. !solve -. !constrain |])

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* SARLock-6 on combinationalized s1238 at lock seed [seed], the
   dip_loop workload's attack: [reps] attacks, alternating a phase-timed
   loop with a whole [Attack.run]; the counts must not move between
   reps. *)
let dip_row ~reps comb seed =
  let lk = Sarlock.lock ~seed comb ~n_keys:6 in
  let locked = lk.Locked.net and key_inputs = lk.Locked.key_inputs in
  let counts = ref None in
  let phases = Array.make_matrix 4 reps 0.0 and attack = Array.make reps 0.0 in
  for r = 0 to reps - 1 do
    let c, ph = dip_attack ~locked ~key_inputs ~chip:comb in
    (match !counts with
    | Some c0 when c0 <> c -> failwith "dip_loop: counts moved between reps"
    | _ -> counts := Some c);
    Array.iteri (fun i t -> phases.(i).(r) <- t) ph;
    let o =
      Attack.run ~seed:42 ~name:"sat" ~locked ~key_inputs ~oracle:(Oracle.of_netlist comb) ()
    in
    attack.(r) <- o.Attack.elapsed_s
  done;
  let dips, (mv, mc), vars, clauses, conflicts, props = Option.get !counts in
  let ms a = 1000.0 *. median a in
  {
    d_name = Printf.sprintf "sarlock6-s1238-%d" seed;
    d_seed = seed;
    d_dips = dips;
    d_miter_vars = mv;
    d_miter_clauses = mc;
    d_vars = vars;
    d_clauses = clauses;
    d_conflicts = conflicts;
    d_propagations = props;
    d_create_ms = ms phases.(0);
    d_solve_ms = ms phases.(1);
    d_constrain_ms = ms phases.(2);
    d_rest_ms = ms phases.(3);
    d_attack_ms = ms attack;
  }

let dip_rows ~reps =
  let comb = fst (Combinationalize.run (Benchmarks.by_name "s1238")) in
  List.map (dip_row ~reps comb) [ 1; 2; 3; 4 ]

(* ----- output ----- *)

let json_of_oracle r =
  Printf.sprintf
    "    {\"name\": %S, \"cells\": %d, \"queries\": %d, \
     \"scalar_queries_per_sec\": %.1f, \"batch_queries_per_sec\": %.1f, \
     \"remote_scalar_queries_per_sec\": %.1f, \
     \"remote_batch_queries_per_sec\": %.1f, \
     \"batch_speedup_vs_scalar\": %.2f, \
     \"remote_batch_speedup_vs_remote_scalar\": %.2f}"
    r.o_bench r.o_cells r.o_queries r.o_scalar_qps r.o_batch_qps
    r.o_remote_scalar_qps r.o_remote_batch_qps
    (r.o_batch_qps /. r.o_scalar_qps)
    (r.o_remote_batch_qps /. r.o_remote_scalar_qps)

let json_of_verify r =
  Printf.sprintf
    "    {\"name\": %S, \"samples\": 64, \"ms_per_call\": %.3f, \"mismatches\": %d}"
    r.v_name r.v_ms r.v_mismatches

let json_of_dip r =
  Printf.sprintf
    "    {\"name\": %S, \"lock_seed\": %d, \"dips\": %d, \"miter_vars\": %d, \
     \"miter_clauses\": %d, \"vars\": %d, \"clauses\": %d, \"conflicts\": %d, \
     \"propagations\": %d, \"create_ms\": %.3f, \"solve_ms\": %.3f, \
     \"constrain_ms\": %.3f, \"rest_ms\": %.3f, \"attack_ms\": %.3f}"
    r.d_name r.d_seed r.d_dips r.d_miter_vars r.d_miter_clauses r.d_vars r.d_clauses
    r.d_conflicts r.d_propagations r.d_create_ms r.d_solve_ms r.d_constrain_ms r.d_rest_ms
    r.d_attack_ms

let json_of_attack r =
  (* %.6f matches the elapsed clamp in [Attack.run]: a bail-before-first-
     iteration run records 1e-6 s, which %.4f used to flatten to 0.0000 —
     indistinguishable from a missing measurement. *)
  Printf.sprintf
    "    {\"bench\": %S, \"attack\": %S, \"verdict\": %S, \
     \"gave_up_reason\": %s, \"iterations\": %d, \"queries\": %d, \
     \"conflicts\": %d, \"elapsed_s\": %.6f}"
    r.a_bench r.a_attack r.a_verdict
    (match r.a_gave_up_reason with
    | Some s -> Printf.sprintf "%S" s
    | None -> "null")
    r.a_iterations r.a_queries r.a_conflicts r.a_elapsed_s

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let out_path =
    let last = Sys.argv.(Array.length Sys.argv - 1) in
    if Array.length Sys.argv > 1 && last <> "--smoke" then last
    else "BENCH_attacks.json"
  in
  let min_time = if smoke then 0.05 else 0.3 in
  let n_queries = Netlist.Engine.word_bits * if smoke then 2 else 16 in
  (* throughput needs circuits large enough that evaluation, not
     per-query bookkeeping, is the cost being amortized; the lists run
     smallest to largest so the final row is the stress case *)
  let oracle_benches =
    List.filter_map
      (fun n ->
        Option.map (fun s -> (n, Benchmarks.load s)) (Benchmarks.find_spec n))
      (if smoke then [ "s1238"; "s5378" ]
       else [ "s1238"; "s5378"; "s38417" ])
  in
  let oracle_rows =
    List.map
      (fun (n, net) ->
        bench_oracle ~min_time ~n_queries net n (Netlist.num_nodes net))
      oracle_benches
  in
  Printf.printf "\n%-8s %6s %12s %12s %12s %12s %9s\n" "bench" "cells"
    "scalar q/s" "batch q/s" "rmt-sc q/s" "rmt-bat q/s" "vs-scalar";
  List.iter
    (fun r ->
      Printf.printf "%-8s %6d %12.0f %12.0f %12.0f %12.0f %8.1fx\n" r.o_bench
        r.o_cells r.o_scalar_qps r.o_batch_qps r.o_remote_scalar_qps
        r.o_remote_batch_qps
        (r.o_batch_qps /. r.o_scalar_qps))
    oracle_rows;
  (* the regression this file exists to catch: on the largest circuit in
     the run, the batched path must not lose to per-query scalar eval *)
  (match List.rev oracle_rows with
  | largest :: _ ->
    if largest.o_batch_qps < largest.o_scalar_qps then
      failwith
        (Printf.sprintf
           "%s: batched oracle regressed below scalar (%.2fx, need >= 1.0x)"
           largest.o_bench
           (largest.o_batch_qps /. largest.o_scalar_qps));
    (* one frame per word must beat one frame per query *)
    if largest.o_remote_batch_qps < largest.o_remote_scalar_qps then
      failwith
        (Printf.sprintf
           "%s: remote batched path regressed below remote scalar (%.2fx)"
           largest.o_bench
           (largest.o_remote_batch_qps /. largest.o_remote_scalar_qps))
  | [] -> ());
  let max_iterations = if smoke then 64 else 256 in
  let deadline_s = if smoke then 5.0 else 30.0 in
  let attack_rows =
    List.concat_map
      (fun (n, net) -> bench_attacks ~max_iterations ~deadline_s net n)
      [ ("tiny", Benchmarks.tiny ()); ("s27", Benchmarks.s27 ()) ]
  in
  Printf.printf "\n%-6s %-17s %-22s %6s %8s %9s %9s\n" "bench" "attack"
    "verdict" "iters" "queries" "conflicts" "time s";
  List.iter
    (fun r ->
      let verdict =
        match r.a_gave_up_reason with
        | Some reason -> r.a_verdict ^ "(" ^ reason ^ ")"
        | None -> r.a_verdict
      in
      Printf.printf "%-6s %-17s %-22s %6d %8d %9d %9.3f\n" r.a_bench
        r.a_attack verdict r.a_iterations r.a_queries r.a_conflicts
        r.a_elapsed_s)
    attack_rows;
  let verify = verify_rows ~min_time in
  Printf.printf "\n%-18s %12s %10s\n" "verify_key" "ms/call" "mismatches";
  List.iter
    (fun r -> Printf.printf "%-18s %12.3f %10d\n" r.v_name r.v_ms r.v_mismatches)
    verify;
  let dips = dip_rows ~reps:(if smoke then 3 else 21) in
  Printf.printf "\n%-18s %5s %11s %11s %9s %12s %8s %8s %8s %8s %8s\n" "dip_loop" "dips"
    "vars" "clauses" "conflicts" "propagations" "create" "solve" "constr" "rest" "attack";
  List.iter
    (fun r ->
      Printf.printf "%-18s %5d %5d>%5d %5d>%5d %9d %12d %8.3f %8.3f %8.3f %8.3f %8.3f\n"
        r.d_name r.d_dips r.d_miter_vars r.d_vars r.d_miter_clauses r.d_clauses r.d_conflicts
        r.d_propagations r.d_create_ms r.d_solve_ms r.d_constrain_ms r.d_rest_ms r.d_attack_ms)
    dips;
  let doc =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"gklock/bench_attacks/v2\",\n\
      \  \"smoke\": %b,\n\
      \  \"word_bits\": %d,\n\
      \  \"oracle\": [\n\
       %s\n\
      \  ],\n\
      \  \"attacks\": [\n\
       %s\n\
      \  ],\n\
      \  \"verify\": [\n\
       %s\n\
      \  ],\n\
      \  \"dip_loop\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      smoke Netlist.Engine.word_bits
      (String.concat ",\n" (List.map json_of_oracle oracle_rows))
      (String.concat ",\n" (List.map json_of_attack attack_rows))
      (String.concat ",\n" (List.map json_of_verify verify))
      (String.concat ",\n" (List.map json_of_dip dips))
  in
  (* the hand-rolled printer above is only trusted after a round-trip
     through the repo's own JSON parser *)
  (match Cjson.of_string doc with
  | Ok (Cjson.Obj _) -> ()
  | Ok _ -> failwith (out_path ^ ": emitted JSON is not an object")
  | Error e -> failwith (out_path ^ ": emitted invalid JSON: " ^ e));
  let oc = open_out out_path in
  output_string oc doc;
  close_out oc;
  Printf.printf "\nwrote %s\n" out_path
