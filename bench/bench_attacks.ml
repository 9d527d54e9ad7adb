(* Attack-framework benchmarks: oracle query throughput (batched
   engine path vs. one query at a time, plus both remote paths through
   an in-process gklockd over a loopback unix socket) and per-attack
   wall time for every registry entry on two benchmarks.  Prints
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
     crosses the wire and really evaluates.  flush_lanes = 1 because a
     single serial client never has lane-mates to coalesce with — with
     the default word-sized flush the scalar column would time the
     coalescing delay, not the round trip *)
  let sock = Filename.temp_file "gklockd_bench" ".sock" in
  Sys.remove sock;
  let server =
    Gkd_server.create
      ~config:
        {
          Gkd_server.default_config with
          Gkd_server.oracle_memo = false;
          flush_lanes = 1;
        }
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
      \  ]\n\
       }\n"
      smoke Netlist.Engine.word_bits
      (String.concat ",\n" (List.map json_of_oracle oracle_rows))
      (String.concat ",\n" (List.map json_of_attack attack_rows))
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
