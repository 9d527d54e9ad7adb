(* bench_e2e — the end-to-end benchmark.

   Three workloads drive the public library functions and the real
   gklockd binary; each times its operations from outside, checks every
   output, and reports the same end-to-end metrics (set-up time, median
   operation latency, peak memory).  A traced run (--trace 1)
   re-runs the workload with Obs tracing on, wraps each call the
   benchmark makes in a bench.<layer> span, and turns the trace into a
   per-layer breakdown.  See README.md in this directory.

     bench_e2e.exe run [--workload NAME] [--seed N] [--seconds S]
                       [--trace 0|1] [--trace-dir DIR] [--out FILE] [--smoke]
     bench_e2e.exe compare A.json... -- B.json... [--bounds BENCHMARK.json] *)

let now = Unix.gettimeofday

(* ----- statistics ----- *)

let sorted xs = Array.of_list (List.sort compare xs)

(* Python's statistics.quantiles(xs, n=4) (the default "exclusive"
   method), so [compare] reads spreads exactly as other tooling does. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = i * m - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs = let _, m, _ = quartiles xs in m

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* ----- process and file helpers ----- *)

(* VmHWM of a process, in MB ([nan] when /proc is unavailable). *)
let peak_rss_mb pid =
  Fs.fold_lines
    (Printf.sprintf "/proc/%s/status" pid)
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> float_of_string kb /. 1024.0
        | [] -> acc)
      | _ -> acc)
    nan

let read_json path =
  match Cjson.of_string (String.trim (Fs.read_file path)) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let span name f = Obs.Trace.with_span ("bench." ^ name) f

(* ----- configuration ----- *)

type cfg = {
  seed : int;
  seconds : float;
  smoke : bool;
  trace : bool;
  scratch : string;  (* absolute, private to this process, removed at exit *)
  trace_dir : string;  (* where traced runs write their JSONL files *)
  gklockd : string;
}

(* Derived seeds: one per (purpose, index) so every input the program
   receives is a function of --seed alone. *)
let derive cfg tag k = Hashtbl.hash (cfg.seed, tag, k)

(* ----- measurement ----- *)

type meter = {
  mutable lat : float list;  (* seconds per timed operation, newest first *)
  mutable attempted : int;  (* checked units *)
  mutable failed : int;  (* checked units with at least one failed check *)
  mutable conflicts : int list;  (* CDCL conflicts per operation, newest first *)
  mutable dips : int;
  mutable queries : int;
}

let meter () =
  { lat = []; attempted = 0; failed = 0; conflicts = []; dips = 0; queries = 0 }

let record m dt = m.lat <- dt :: m.lat

(* [timed f] runs the measured part of an operation inside a bench.op
   span (so traced runs can attribute its time) and returns its result
   and wall time; checks run after it, outside both. *)
let timed f =
  let t0 = now () in
  let r = span "op" f in
  (r, now () -. t0)

(* One checked unit: [problems] lists every check it failed. *)
let account m problems =
  m.attempted <- m.attempted + 1;
  if problems <> [] then begin
    m.failed <- m.failed + 1;
    if m.failed <= 10 then
      List.iter (fun p -> prerr_endline ("bench_e2e: check failed: " ^ p)) problems
  end

let expect cond msg = if cond then [] else [ msg ]

(* What a workload hands back when its environment is torn down. *)
type released = {
  r_rss_mb : float option;  (* the daemon's peak RSS, when there is one *)
  r_daemon_trace : string option;
  r_daemon_metrics : Cjson.t option;
}

let nothing_released =
  { r_rss_mb = None; r_daemon_trace = None; r_daemon_metrics = None }

type 'env workload = {
  prepare : cfg -> unit;  (* untimed, once per process, before any set-up *)
  setup : cfg -> traced:bool -> int -> meter -> 'env;
      (* [rep] numbers the set-ups of one process so each gets fresh
         directories; set-up checks count in the meter *)
  op : cfg -> 'env -> meter -> int -> unit;  (* one timed operation, then its checks *)
  release : 'env -> meter -> released;
}

type packed = W : 'env workload -> packed

(* ----- gk_sat: the paper's Sec. VI experiment ----- *)

(* s38417 and s38584 are left out: each of their GK-8 UNSAT proofs takes
   40-60 s, longer than one run may measure. *)
let gk_benches cfg =
  if cfg.smoke then [ "s1238"; "s5378" ] else [ "s1238"; "s5378"; "s9234"; "s13207"; "s15850" ]

let sim_cycles = 24

type gk_bench = {
  gb_name : string;
  gb_net : Netlist.t;  (* the unlocked sequential design *)
  gb_clock : int;
  gb_comb : Netlist.t;  (* the oracle: the unlocked design, combinationalized *)
  gb_sim : Timing_sim.config;
  gb_stim : Netlist.t -> int -> Timing_sim.drive;
  gb_base : Timing_sim.result;  (* the unlocked design under the same stimulus *)
  gb_base_ffs : (string, Logic.t array) Hashtbl.t;
}

let ff_samples net (r : Timing_sim.result) =
  let h = Hashtbl.create 64 in
  Array.iteri
    (fun i id -> Hashtbl.replace h (Netlist.node net id).Netlist.name r.Timing_sim.ff_samples.(i))
    r.Timing_sim.ff_ids;
  h

(* Timing-true samples of the locked design that differ from the unlocked
   design after two warm-up cycles: primary outputs plus the data
   flip-flops (matched by name).  Flip-flops count because on some
   placements a wrong key corrupts state that reaches no output within
   the simulated cycles (seen on s15850). *)
let state_mismatches b lnet r =
  let ffs = ff_samples lnet r in
  Hashtbl.fold
    (fun name base acc ->
      match Hashtbl.find_opt ffs name with
      | None -> acc
      | Some got ->
        let n = ref acc in
        Array.iteri (fun k v -> if k >= 2 && v <> got.(k) then incr n) base;
        !n)
    b.gb_base_ffs
    (fst (Stimuli.po_agreement ~skip:2 b.gb_base r))

(* The stripped key gkkey<i> is the GK's KEYGEN output; the constant the
   attack leaves there is realised on the full design by the KEYGEN
   selection that outputs that constant (k1 = k2 = b, Fig. 6). *)
let leftover_key (d : Insertion.design) key =
  List.concat
    (List.mapi
       (fun i (p : Insertion.placement) ->
         let b = List.assoc (Printf.sprintf "gkkey%d" i) key in
         [ (p.Insertion.p_k1_name, b); (p.Insertion.p_k2_name, b) ])
       d.Insertion.placements)

let gk_sat : gk_bench array workload =
  let setup cfg ~traced:_ _rep _m =
    Array.of_list
      (List.map
         (fun bname ->
           let spec = Option.get (Benchmarks.find_spec bname) in
           let net = span "load" (fun () -> Benchmarks.load spec) in
           let clock =
             span "sta" (fun () -> Sta.clock_for net ~margin:spec.Benchmarks.clk_margin)
           in
           let comb = span "combinationalize" (fun () -> fst (Combinationalize.run net)) in
           ignore (Oracle.of_netlist comb);
           let sim = { Timing_sim.clock_ps = clock; cycles = sim_cycles } in
           let stim n = Stimuli.edge_aligned ~seed:cfg.seed n ~clock_ps:clock ~cycles:sim_cycles in
           let base =
             span "sim_baseline" (fun () ->
                 Timing_sim.run ~drive:(stim net) ~captures_from:(fun _ -> 1) net sim)
           in
           { gb_name = bname; gb_net = net; gb_clock = clock; gb_comb = comb; gb_sim = sim;
             gb_stim = stim; gb_base = base; gb_base_ffs = ff_samples net base })
         (gk_benches cfg))
  in
  (* Every round locks each benchmark at a fresh seeded placement before
     its timer starts: the UNSAT proof's cost varies by about 20% with the
     placement, so a run's median spans as many placements as it has
     rounds instead of the few a fixed pool would hold. *)
  let op cfg benches m r =
    let seed = derive cfg "attack" r in
    let insts =
      Array.map
        (fun b ->
          let d =
            span "lock" (fun () ->
                Insertion.lock ~seed:(derive cfg b.gb_name r) b.gb_net ~clock_ps:b.gb_clock ~n_gks:8)
          in
          let stripped, keys = span "strip" (fun () -> Insertion.strip_keygens d) in
          let locked = span "combinationalize" (fun () -> fst (Combinationalize.run stripped)) in
          (b, d, locked, keys))
        benches
    in
    let results, dt =
      timed @@ fun () ->
      Array.map
        (fun (b, d, locked, keys) ->
          let o =
            Attack.run ~seed ~name:"sat" ~locked ~key_inputs:keys
              ~oracle:(Oracle.of_netlist b.gb_comb) ()
          in
          let sim key =
            Timing_sim.run
              ~drive:(Insertion.timing_drive ~other:(b.gb_stim d.Insertion.lnet) d key)
              ~captures_from:(Insertion.capture_policy d) d.Insertion.lnet b.gb_sim
          in
          let correct = sim d.Insertion.correct_key in
          let leftover =
            match o.Attack.verdict with
            | Attack.No_dip { key; _ } -> Some (sim (leftover_key d key))
            | _ -> None
          in
          (b, d, o, correct, leftover))
        insts
    in
    record m dt;
    m.conflicts <- Array.fold_left (fun acc (_, _, o, _, _) -> acc + o.Attack.conflicts) 0 results :: m.conflicts;
    Array.iter
      (fun (b, d, o, correct, leftover) ->
        m.queries <- m.queries + o.Attack.queries;
        let mism r = state_mismatches b d.Insertion.lnet r in
        let verdict = Attack.verdict_name o.Attack.verdict in
        account m
          (expect
             (match o.Attack.verdict with Attack.No_dip { mismatches; _ } -> mismatches > 0 | _ -> false)
             (Printf.sprintf "%s: verdict %s, wanted no_dip with a refuted key" b.gb_name verdict)
          @ expect (mism correct = 0)
              (Printf.sprintf "%s: correct key corrupts %d samples" b.gb_name (mism correct))
          @
          match leftover with
          | Some r -> expect (mism r > 0) (Printf.sprintf "%s: leftover key corrupts nothing" b.gb_name)
          | None -> []))
      results
  in
  { prepare = ignore; setup; op; release = (fun _ _ -> nothing_released) }

(* ----- dip_loop: the many-small-solves shape ----- *)

(* One operation is one SARLock-6 SAT attack on combinationalized s1238:
   2^6 - 1 = 63 DIPs whatever the placement, each a growing solve plus an
   oracle query and a re-encoded constraint.  The placement still moves
   the conflict count by about 15%, so set-up locks more placements than a
   run has attacks and every attack gets its own.  That also gives set-up
   enough work (about 30 ms) to time steadily: loading and
   combinationalizing s1238 alone takes 1.5-2 ms, and which of the two a
   process got varied from run to run.  SARLock-8 (255 DIPs) takes 8 s per
   attack; XOR-16 is left out because its DIP count (5-11) depends on the
   key placement, so its time varies with the seed. *)
let dip_bench = "s1238"
let sarlock_bits = 6
let dip_placements = 64

type dip_env = { de_comb : Netlist.t; de_locked : Locked.t array }

let dip_loop : dip_env workload =
  let setup cfg ~traced:_ _rep _m =
    let net = span "load" (fun () -> Benchmarks.by_name dip_bench) in
    let comb = span "combinationalize" (fun () -> fst (Combinationalize.run net)) in
    ignore (Oracle.of_netlist comb);
    {
      de_comb = comb;
      de_locked =
        Array.init dip_placements (fun k ->
            span "lock" (fun () -> Sarlock.lock ~seed:(derive cfg "sarlock" k) comb ~n_keys:sarlock_bits));
    }
  in
  let op cfg e m r =
    let l = e.de_locked.(r mod dip_placements) in
    let o, dt =
      timed (fun () ->
          Attack.run ~seed:(derive cfg "attack" r) ~name:"sat" ~locked:l.Locked.net
            ~key_inputs:l.Locked.key_inputs ~oracle:(Oracle.of_netlist e.de_comb) ())
    in
    record m dt;
    m.dips <- m.dips + o.Attack.iterations;
    m.queries <- m.queries + o.Attack.queries;
    m.conflicts <- o.Attack.conflicts :: m.conflicts;
    let want = (1 lsl sarlock_bits) - 1 in
    account m
      (expect
         (match o.Attack.verdict with Attack.Key_recovered _ -> true | _ -> false)
         (Printf.sprintf "verdict %s, wanted key_recovered" (Attack.verdict_name o.Attack.verdict))
      @ expect (o.Attack.iterations = want)
          (Printf.sprintf "%d DIPs, wanted %d" o.Attack.iterations want))
  in
  { prepare = ignore; setup; op; release = (fun _ _ -> nothing_released) }

(* ----- oracle_service: gklockd serving s38417 ----- *)

let oracle_design = "s38417"

type reference = { ref_oracle : Oracle.t; ref_inputs : string array }

(* The in-process chip every remote reply is checked against.  One shard,
   so this process never starts a domain (spawning gklockd forks). *)
let reference =
  lazy
    (let comb = fst (Combinationalize.run (Benchmarks.by_name oracle_design)) in
     let o = Oracle.of_netlist ~memo:false ~shards:1 comb in
     { ref_oracle = o; ref_inputs = Array.of_list (Oracle.input_names o) })

type daemon = {
  d_proc : Systest_proc.t;
  d_remote : Remote_oracle.t;
  d_metrics : string;
  d_trace : string option;
  d_rng : Random.State.t;
}

let sorted_reply r = List.sort compare r

let vector d =
  let r = Lazy.force reference in
  Array.to_list (Array.map (fun n -> (n, Random.State.bool d.d_rng)) r.ref_inputs)

(* One daemon per set-up, each with its own sandbox directory for its
   logs, socket and metrics dump, so no daemon can see another's files.

   Every call sends a fresh vector, so the server and client memos would
   only accumulate entries (about 80 KB each on s38417) and make latency
   and memory drift with run length; both are off, and every query pays
   codec, socket, coalescing and one engine evaluation.

   Only single-query frames are timed: the median of 63-query Query_batch
   frames moved by up to 20% between runs of the same seed minutes apart
   (client-side encoding of 63 x 1,592 named inputs is memory-bound and
   follows the load on the shared host), too much for a regression bound. *)
let oracle_service : daemon workload =
  let setup cfg ~traced rep _m =
    let dir = Filename.concat cfg.scratch (Printf.sprintf "d%d" rep) in
    Fs.mkdir_p dir;
    (* unix socket paths are limited to ~108 bytes: the daemon shares our
       cwd, so a relative path keeps the address short *)
    let sock =
      let cwd = Sys.getcwd () ^ "/" in
      let n = String.length cwd in
      let rel = Filename.concat dir "d.sock" in
      if String.length rel > n && String.sub rel 0 n = cwd then String.sub rel n (String.length rel - n)
      else rel
    in
    let trace = if traced then Some (Filename.concat cfg.trace_dir "gklockd.jsonl") else None in
    let env =
      Array.append
        (Array.of_list
           (List.filter
              (fun kv -> not (String.starts_with ~prefix:"GKLOCK_" kv))
              (Array.to_list (Unix.environment ()))))
        (match trace with Some f -> [| "GKLOCK_TRACE=" ^ f |] | None -> [||])
    in
    let metrics = Filename.concat dir "metrics.json" in
    span "daemon" @@ fun () ->
    let proc =
      Systest_proc.spawn ~env ~logs_dir:dir ~name:"gklockd" cfg.gklockd
        [ oracle_design; "--listen"; "unix:" ^ sock; "--no-memo"; "--metrics-out"; metrics ]
    in
    (* connect as soon as the daemon accepts: retrying every 2 ms times
       its start-up more finely than polling its log for the listen line *)
    let deadline = now () +. 30.0 in
    let rec connect () =
      match Remote_oracle.connect ~client:"bench_e2e" ~memo:false (Frame_io.Unix_path sock) with
      | r -> r
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when now () < deadline && Systest_proc.alive proc ->
        Unix.sleepf 0.002;
        connect ()
    in
    let remote = connect () in
    ignore (Remote_oracle.ping remote);
    {
      d_proc = proc;
      d_remote = remote;
      d_metrics = metrics;
      d_trace = trace;
      d_rng = Random.State.make [| cfg.seed; rep |];
    }
  in
  let op _cfg d m _ =
    let r = Lazy.force reference in
    let q = vector d in
    let remote = Remote_oracle.oracle d.d_remote in
    let got, dt =
      timed @@ fun () ->
      try Ok (Oracle.query remote q)
      with
      | Remote_oracle.Remote_error (_, msg) -> Error ("remote error: " ^ msg)
      | Unix.Unix_error (e, f, _) -> Error (f ^ ": " ^ Unix.error_message e)
    in
    match got with
    | Error msg -> account m [ msg ]
    | Ok got ->
      record m dt;
      m.queries <- m.queries + 1;
      account m
        (expect
           (sorted_reply got = sorted_reply (Oracle.query r.ref_oracle q))
           "remote reply differs from the in-process oracle")
  in
  let release d m =
    let rss = peak_rss_mb (string_of_int (Systest_proc.pid d.d_proc)) in
    (try Remote_oracle.shutdown_server d.d_remote
     with
     | Remote_oracle.Remote_error (_, msg) -> account m [ "shutdown: " ^ msg ]
     | Unix.Unix_error (e, f, _) -> account m [ "shutdown: " ^ f ^ ": " ^ Unix.error_message e ]);
    Remote_oracle.close d.d_remote;
    let status =
      try Some (Systest_proc.wait ~timeout_s:30.0 d.d_proc)
      with Systest_proc.Timeout _ -> Systest_proc.kill d.d_proc; None
    in
    account m (expect (status = Some (Unix.WEXITED 0)) "gklockd did not exit cleanly after shutdown");
    {
      r_rss_mb = Some rss;
      r_daemon_trace = d.d_trace;
      r_daemon_metrics = (try Some (read_json d.d_metrics) with _ -> None);
    }
  in
  { prepare = (fun _ -> ignore (Lazy.force reference)); setup; op; release }

(* ----- the workload table ----- *)

let workloads =
  [
    ("gk_sat", W gk_sat);
    ("dip_loop", W dip_loop);
    ("oracle_service", W oracle_service);
  ]

(* ----- metrics ----- *)

type metric = { name : string; value : float; unit_ : string }

let mk name unit_ value = { name; value; unit_ }

(* The highest of p50/p90/p99 with at least ten samples beyond it. *)
let tail lat =
  let n = float_of_int (List.length lat) in
  List.find_opt (fun p -> n *. (1.0 -. p) >= 10.0) [ 0.99; 0.9; 0.5 ]

(* Every operation of a workload does the same amount of work (five
   attacks and ten simulations, one attack of 63 DIPs, one query), so the
   median latency also gives the throughput. *)
let end_to_end ~setup_s ~rss m =
  [ mk "setup_s" "s" setup_s; mk "op_p50_ms" "ms" (1000.0 *. median m.lat); mk "peak_rss_mb" "MB" rss ]

let detail m =
  let ms p = 1000.0 *. percentile m.lat p in
  Cjson.Obj
    ([ ("ops", Cjson.Int (List.length m.lat)); ("p50_ms", Cjson.Float (ms 0.5)) ]
    @ match tail m.lat with
      | Some p -> [ ("tail_p", Cjson.Float p); ("tail_ms", Cjson.Float (ms p)) ]
      | None -> [])

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

(* Per-layer metrics of one traced phase.  Operation shares partition
   the traced operation time (bench.op spans); set-up shares partition
   the traced set-up time (bench.setup spans). *)
let per_layer ~setup_agg ~ops_agg ~(rel : released) ~m ~gc ~sim_events ~overhead_pct =
  let module A = Span_agg in
  let daemon = Option.map (fun f -> A.of_files [ f ]) rel.r_daemon_trace in
  let dsum f name = match daemon with Some d -> f d name | None -> 0.0 in
  let hist name field =
    match rel.r_daemon_metrics with
    | None -> 0.0
    | Some j -> Option.value ~default:0.0 (Option.bind (Cjson.member name j) (Cjson.mem_float field))
  in
  let ops = float_of_int (max 1 (List.length m.lat)) in
  let op_s = A.total_s ops_agg "bench.op" in
  let under n = A.self_under_s ops_agg ~root:"bench.op" n in
  let op_pct x = if op_s > 0.0 then 100.0 *. x /. op_s else 0.0 in
  let solve = under "attack.solve" and iter = under "attack.iteration" and run = under "attack.run"
  and compile = under "engine.compile" and sim = under "sim.run" in
  (* a remote call's own time splits into daemon work, queue wait and
     the client side (codec, socket) *)
  let remote = daemon <> None in
  let server = dsum A.self_s "gklockd.request" +. dsum A.self_s "gklockd.flush" in
  let wait = hist "gklockd.queue_wait_s" "sum" in
  let op_self = under "bench.op" in
  let client = if remote then Float.max 0.0 (op_self -. server -. wait) else 0.0 in
  let unattributed =
    op_s -. solve -. iter -. run -. compile -. sim -. if remote then op_self else 0.0
  in
  let setup_s = A.total_s setup_agg "bench.setup" in
  let setup_pct x = if setup_s > 0.0 then 100.0 *. x /. setup_s else 0.0 in
  let sself n = A.self_s setup_agg ("bench." ^ n) in
  let s_netlist = sself "load" +. sself "combinationalize"
  and s_sta = sself "sta"
  and s_lock = sself "lock" +. sself "strip"
  and s_compile = A.total_under_s setup_agg ~root:"bench.setup" "engine.compile" +. dsum A.total_s "engine.compile" in
  let conflicts = List.fold_left ( + ) 0 m.conflicts in
  let solve_s = A.total_s ops_agg "attack.solve" in
  let fill_n = hist "gklockd.batch_fill" "count" in
  let minor, major = gc in
  [
    mk "op.sat_solve_pct" "%" (op_pct solve);
    mk "op.attack_iteration_pct" "%" (op_pct iter);
    mk "op.attack_other_pct" "%" (op_pct run);
    mk "op.engine_compile_pct" "%" (op_pct compile);
    mk "op.sim_pct" "%" (op_pct sim);
    mk "op.net_wait_pct" "%" (op_pct wait);
    mk "op.net_server_pct" "%" (op_pct server);
    mk "op.net_client_pct" "%" (op_pct client);
    mk "op.unattributed_pct" "%" (op_pct unattributed);
    mk "setup.netlist_pct" "%" (setup_pct s_netlist);
    mk "setup.sta_pct" "%" (setup_pct s_sta);
    mk "setup.locking_pct" "%" (setup_pct s_lock);
    mk "setup.engine_compile_pct" "%" (setup_pct s_compile);
    mk "setup.other_pct" "%"
      (Float.max 0.0 (100.0 -. setup_pct (s_netlist +. s_sta +. s_lock +. s_compile)));
    mk "inputs.lock_ms_per_op" "ms"
      (1000.0 *. (A.total_s ops_agg "bench.lock" +. A.total_s ops_agg "bench.strip") /. ops);
    mk "sat.conflicts" "count" (float_of_int (match List.rev m.conflicts with c :: _ -> c | [] -> 0));
    mk "sat.conflicts_per_s" "1/s" (if solve_s > 0.0 then float_of_int conflicts /. solve_s else 0.0);
    mk "sat.solve_calls_per_op" "count" (float_of_int (A.count ops_agg "attack.solve") /. ops);
    mk "attacks.dips_per_op" "count" (float_of_int m.dips /. ops);
    mk "oracle.queries_per_op" "count" (float_of_int m.queries /. ops);
    mk "sim.events_per_op" "count" (float_of_int sim_events /. ops);
    mk "net.batch_fill" "count" (if fill_n > 0.0 then hist "gklockd.batch_fill" "sum" /. fill_n else 0.0);
    mk "gc.minor_mw_per_op" "Mw" (minor /. 1e6 /. ops);
    mk "gc.major_mw_per_op" "Mw" (major /. 1e6 /. ops);
    mk "obs.trace_overhead_pct" "%" overhead_pct;
  ]

(* ----- running one workload ----- *)

(* Runs operations for [seconds] (at least one).  With [warmup],
   operations run unrecorded for a twentieth of that time first (at
   least one), so lazy set-up and heap growth settle before timing; their
   checks still count. *)
let measure ?(warmup = false) cfg w env m ~seconds =
  let i = ref 0 in
  let run m secs =
    let t_end = now () +. secs in
    let i0 = !i in
    while !i = i0 || now () < t_end do
      w.op cfg env m !i;
      incr i
    done
  in
  if warmup then begin
    let mw = meter () in
    run mw (0.05 *. seconds);
    m.attempted <- m.attempted + mw.attempted;
    m.failed <- m.failed + mw.failed
  end;
  run m seconds

type outcome = { metrics : metric list; m : meter; extra : (string * Cjson.t) list }

let run_untraced cfg w =
  w.prepare cfg;
  let m = meter () in
  (* set-up runs at least three times (once under --smoke), and more
     while the set-ups took under a second in total (at most 20), so
     the median of a cheap set-up is not one cold sample *)
  let times = ref [] in
  let env = ref None in
  let enough () =
    let n = List.length !times in
    n >= 20 || (n >= (if cfg.smoke then 1 else 3) && List.fold_left ( +. ) 0.0 !times >= 1.0)
  in
  while not (enough ()) do
    Option.iter (fun e -> ignore (w.release e m)) !env;
    env := None;
    (* each set-up starts from a collected heap, as in a fresh process,
       instead of paying for the garbage of the previous one *)
    Gc.full_major ();
    let t0 = now () in
    let e = w.setup cfg ~traced:false (List.length !times + 1) m in
    times := (now () -. t0) :: !times;
    env := Some e
  done;
  let env = Option.get !env in
  measure ~warmup:true cfg w env m ~seconds:cfg.seconds;
  let rel = w.release env m in
  let rss = match rel.r_rss_mb with Some r -> r | None -> peak_rss_mb "self" in
  {
    metrics = end_to_end ~setup_s:(median !times) ~rss m;
    m;
    extra = [ ("detail", detail m); ("setup_runs_s", Cjson.List (List.rev_map (fun t -> Cjson.Float t) !times)) ];
  }

(* Half the time untraced (the overhead baseline), half traced.  Neither
   half warms up: both run the same operations from operation 0, and the
   traced spans (the daemon's included) cover exactly the operations
   counted. *)
let run_traced cfg w =
  w.prepare cfg;
  let half = cfg.seconds /. 2.0 in
  let mu = meter () in
  let env = w.setup cfg ~traced:false 1 mu in
  measure cfg w env mu ~seconds:half;
  ignore (w.release env mu);
  let file n = Filename.concat cfg.trace_dir n in
  let m = meter () in
  m.attempted <- mu.attempted;
  m.failed <- mu.failed;
  Obs.Trace.enable ~file:(file "setup.jsonl") ();
  let env = span "setup" (fun () -> w.setup cfg ~traced:true 2 m) in
  Obs.Trace.disable ();
  let ev0 = Obs.Metrics.value (Obs.Metrics.counter "sim.events_popped") in
  let mi0, ma0 = gc_words () in
  Obs.Trace.enable ~file:(file "ops.jsonl") ();
  measure cfg w env m ~seconds:half;
  Obs.Trace.disable ();
  let mi1, ma1 = gc_words () in
  let sim_events = Obs.Metrics.value (Obs.Metrics.counter "sim.events_popped") - ev0 in
  let rel = w.release env m in
  let overhead_pct = 100.0 *. ((median m.lat /. median mu.lat) -. 1.0) in
  {
    metrics =
      per_layer
        ~setup_agg:(Span_agg.of_files [ file "setup.jsonl" ])
        ~ops_agg:(Span_agg.of_files [ file "ops.jsonl" ])
        ~rel ~m ~gc:(mi1 -. mi0, ma1 -. ma0) ~sim_events ~overhead_pct;
    m;
    extra = [ ("detail", detail m); ("untraced_detail", detail mu) ];
  }

let metrics_json ms =
  Cjson.Obj
    (List.map
       (fun x -> (x.name, Cjson.Obj [ ("value", Cjson.Float x.value); ("unit", Cjson.Str x.unit_) ]))
       ms)

let result_json o =
  Cjson.Obj
    [
      ("correct", Cjson.Bool (o.m.failed = 0));
      ("attempted", Cjson.Int o.m.attempted);
      ("failed", Cjson.Int o.m.failed);
      ("metrics", metrics_json o.metrics);
    ]

let run_one cfg name out =
  let (W w) = List.assoc name workloads in
  let cfg = { cfg with trace_dir = Filename.concat cfg.trace_dir name } in
  Fs.mkdir_p cfg.trace_dir;
  let o = if cfg.trace then run_traced cfg w else run_untraced cfg w in
  List.iter (fun x -> Printf.printf "%s %s %.6g %s\n" name x.name x.value x.unit_) o.metrics;
  Printf.printf "%s attempted %d failed %d\n" name o.m.attempted o.m.failed;
  (match out with
  | None -> ()
  | Some path ->
    let run =
      match result_json o with
      | Cjson.Obj fields ->
        Cjson.Obj
          ([
             ("workload", Cjson.Str name);
             ("seed", Cjson.Int cfg.seed);
             ("seconds", Cjson.Float cfg.seconds);
             ("trace", Cjson.Bool cfg.trace);
           ]
          @ fields @ o.extra)
      | j -> j
    in
    Fs.write_atomic ~path (Cjson.to_string (Cjson.Obj [ ("runs", Cjson.List [ run ]) ]) ^ "\n"));
  print_endline (Cjson.to_string (result_json o));
  o.m.failed

(* ----- run: every workload, each in its own process ----- *)

let runs_of path =
  match Cjson.mem_list "runs" (read_json path) with
  | Some rs -> rs
  | None -> failwith (path ^ ": no \"runs\" list")

let run_all cfg ~argv_rest out =
  let failed = ref 0 in
  let runs =
    List.concat_map
      (fun (name, _) ->
        let child_out = Filename.concat cfg.scratch (name ^ ".json") in
        let args =
          Array.of_list
            ([ Sys.executable_name; "run"; "--workload"; name; "--out"; child_out ] @ argv_rest)
        in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let last = ref "" in
        (try
           while true do
             let line = input_line ic in
             if !last <> "" then print_endline !last;
             last := line
           done
         with End_of_file -> ());
        let status = Unix.close_process_in ic in
        (match Cjson.of_string !last with
        | Ok j -> failed := !failed + Option.value ~default:1 (Cjson.mem_int "failed" j)
        | Error e ->
          incr failed;
          Printf.printf "%s: no result line (%s)\n" name e);
        if status <> Unix.WEXITED 0 then Printf.printf "%s: exited with %s\n" name
            (match status with
             | Unix.WEXITED n -> "code " ^ string_of_int n
             | Unix.WSIGNALED s -> "signal " ^ string_of_int s
             | Unix.WSTOPPED s -> "stop " ^ string_of_int s);
        flush stdout;
        try runs_of child_out with Sys_error _ | Failure _ -> [])
      workloads
  in
  let doc = Cjson.Obj [ ("runs", Cjson.List runs) ] in
  let text = Cjson.to_string doc in
  (* the written document must read back *)
  (match Cjson.of_string text with
  | Ok j when Cjson.to_string j = text -> ()
  | _ ->
    incr failed;
    print_endline "bench_e2e: result JSON does not round-trip");
  Option.iter (fun path -> Fs.write_atomic ~path (text ^ "\n")) out;
  Printf.printf "total failed %d\n" !failed;
  !failed

(* ----- compare ----- *)

type bound = { b_better : string; b_bound : float }

let bounds_of path =
  let j = read_json path in
  List.filter_map
    (fun e ->
      match (Cjson.mem_str "name" e, Cjson.mem_str "better" e, Cjson.mem_float "bound" e) with
      | Some n, Some b, Some x -> Some (n, { b_better = b; b_bound = x })
      | _ -> None)
    (Option.value ~default:[] (Cjson.mem_list "end_to_end" j))

let samples files =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun path ->
      List.iter
        (fun run ->
          match (Cjson.mem_str "workload" run, Cjson.member "metrics" run) with
          | Some w, Some (Cjson.Obj ms) ->
            List.iter
              (fun (name, v) ->
                match Cjson.mem_float "value" v with
                | Some x ->
                  let key = (w, name) in
                  let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
                  Hashtbl.replace tbl key (x :: prev)
                | None -> ())
              ms
          | _ -> ())
        (runs_of path))
    files;
  tbl

let compare_cmd ~bounds a_files b_files =
  let bounds = bounds_of bounds in
  let a = samples a_files and b = samples b_files in
  let keys =
    Hashtbl.fold (fun k _ acc -> if Hashtbl.mem b k then k :: acc else acc) a [] |> List.sort compare
  in
  let regressed = ref 0 in
  List.iter
    (fun ((w, name) as k) ->
      let xa = Hashtbl.find a k and xb = Hashtbl.find b k in
      let qa1, ma, qa3 = quartiles xa and qb1, mb, qb3 = quartiles xb in
      let spread q1 q3 m = if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m in
      let verdict =
        match List.assoc_opt name bounds with
        | None -> "-"
        | Some bd ->
          let lower = bd.b_better = "lower" in
          let worse = if lower then (mb -. ma) /. Float.abs ma else (ma -. mb) /. Float.abs ma in
          let all_better =
            List.for_all
              (fun y -> List.for_all (fun x -> if lower then y < x else y > x) xa)
              xb
          in
          if all_better then "within-bound"
          else if Float.max (spread qa1 qa3 ma) (spread qb1 qb3 mb) > bd.b_bound then "unresolved"
          else if worse > bd.b_bound then (incr regressed; "regressed")
          else "within-bound"
      in
      Printf.printf "%-14s %-28s A %.6g [%.6g, %.6g] n=%d  B %.6g [%.6g, %.6g] n=%d  %+.1f%%  %s\n" w name ma
        qa1 qa3 (List.length xa) mb qb1 qb3 (List.length xb)
        (if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. Float.abs ma)
        verdict)
    keys;
  if !regressed > 0 then 1 else 0

(* ----- command line ----- *)

let usage =
  "bench_e2e run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] \
   [--out FILE] [--smoke] [--gklockd PATH]\n\
   bench_e2e compare A.json... -- B.json... [--bounds BENCHMARK.json]"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("bench_e2e: " ^ m); prerr_endline usage; exit 2) fmt

let main_run args =
  let workload = ref None and seed = ref 42 and seconds = ref None and trace = ref false
  and trace_dir_arg = ref None and out = ref None and smoke = ref false
  and gklockd = ref "_build/default/bin/gklockd.exe" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := Some v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := Some (float_of_string v); parse r
    | "--trace" :: v :: r -> trace := (v = "1"); parse r
    | "--trace-dir" :: v :: r -> trace_dir_arg := Some v; parse r
    | "--out" :: v :: r -> out := Some v; parse r
    | "--smoke" :: r -> smoke := true; parse r
    | "--gklockd" :: v :: r -> gklockd := v; parse r
    | a :: _ -> die "unknown argument %S" a
  in
  (try parse args with Failure _ -> die "bad number in arguments");
  (match !workload with
  | Some w when not (List.mem_assoc w workloads) ->
    die "unknown workload %S (known: %s)" w (String.concat ", " (List.map fst workloads))
  | _ -> ());
  let abs p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  if not (Sys.file_exists !gklockd) then die "gklockd binary not found at %s" !gklockd;
  let scratch = abs (Filename.concat ".bench_e2e" (string_of_int (Unix.getpid ()))) in
  Fs.mkdir_p scratch;
  at_exit (fun () ->
      ignore (Systest_proc.kill_stragglers ());
      Fs.rm_rf scratch;
      try Unix.rmdir (Filename.dirname scratch) with Unix.Unix_error _ -> ());
  let trace_dir =
    match !trace_dir_arg with
    | Some d -> Fs.mkdir_p d; abs d
    | None -> scratch
  in
  let cfg =
    {
      seed = !seed;
      seconds = Option.value !seconds ~default:(if !smoke then 1.0 else 36.0);
      smoke = !smoke;
      trace = !trace;
      scratch;
      trace_dir;
      gklockd = abs !gklockd;
    }
  in
  let failed =
    match !workload with
    | Some w -> run_one cfg w !out
    | None ->
      let rest =
        [ "--seed"; string_of_int cfg.seed; "--seconds"; Printf.sprintf "%g" cfg.seconds;
          "--trace"; (if cfg.trace then "1" else "0"); "--gklockd"; cfg.gklockd ]
        @ (if cfg.smoke then [ "--smoke" ] else [])
        @ match !trace_dir_arg with Some _ -> [ "--trace-dir"; trace_dir ] | None -> []
      in
      run_all cfg ~argv_rest:rest !out
  in
  exit (if failed > 0 then 1 else 0)

let main_compare args =
  let bounds = ref "BENCHMARK.json" in
  let rec split acc = function
    | "--" :: r -> (List.rev acc, r)
    | x :: r -> split (x :: acc) r
    | [] -> die "compare needs A files, then --, then B files"
  in
  let rec strip = function
    | "--bounds" :: v :: r -> bounds := v; strip r
    | x :: r -> x :: strip r
    | [] -> []
  in
  let a, b = split [] (strip args) in
  if a = [] || b = [] then die "compare needs at least one file on each side";
  exit (compare_cmd ~bounds:!bounds a b)

let () =
  (* measurements must not inherit tracing or a redirected store *)
  Unix.putenv "GKLOCK_TRACE" "0";
  Unix.putenv "GKLOCK_STORE" "";
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> main_run args
  | "compare" :: args -> main_compare args
  | _ -> die "expected a subcommand"
