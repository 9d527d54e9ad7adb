(* The scenario catalogue: end-to-end flows against the real binaries.

   Each scenario runs in its own sandbox (ctx.dir is the spawned
   processes' working directory), talks to the gklock / gklockd
   executables the build produced, and asserts on exit codes, captured
   logs and the files the binaries leave behind.  Daemon interactions
   additionally use the Remote_oracle client library in-process — the
   same wire protocol a third-party client would speak. *)

open Systest

let status_str = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* Spawn [ctx.gklock args] in the sandbox and wait; returns (status,
   proc) so callers can assert whatever they need. *)
let gklock_any ?(timeout_s = 90.0) (ctx : ctx) name args =
  let p =
    Systest_proc.spawn ~cwd:ctx.dir ~logs_dir:ctx.logs_dir ~name ctx.gklock
      args
  in
  let st = Systest_proc.wait ~timeout_s p in
  (st, p)

(* Same, but the common case: must exit 0; returns captured stdout. *)
let gklock_ok ?timeout_s ctx name args =
  match gklock_any ?timeout_s ctx name args with
  | Unix.WEXITED 0, p -> Systest_proc.stdout p
  | st, p ->
    fail "%s: gklock %s → %s (wanted exit 0)\n--- stderr tail ---\n%s" name
      (String.concat " " args) (status_str st)
      (Systest_proc.tail (Systest_proc.stderr_path p))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* First line of [s] containing [sub]. *)
let line_with ~what s sub =
  match
    List.find_opt (fun l -> contains l sub) (String.split_on_char '\n' s)
  with
  | Some l -> l
  | None -> fail "%s: no line containing %S in:\n%s" what sub s

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let in_dir (ctx : ctx) f = Filename.concat ctx.dir f

let count_lines s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

(* ----- daemon helpers ----- *)

let spawn_daemon ?(args = []) (ctx : ctx) name listen =
  let d =
    Systest_proc.spawn ~cwd:ctx.dir ~logs_dir:ctx.logs_dir ~name ctx.gklockd
      ([ "s27"; "--listen"; listen ] @ args)
  in
  let addr = Load_gen.bound_addr d in
  (d, addr)

let daemon_pins r =
  match Remote_oracle.designs r with
  | [ d ] -> d.Wire.d_inputs
  | ds -> fail "expected one hosted design, daemon lists %d" (List.length ds)

(* The i-th exhaustive input assignment over [pins]. *)
let asg pins i = List.mapi (fun b p -> (p, (i lsr b) land 1 = 1)) pins

(* ----- 1. cli_basics ----- *)

let () =
  register ~name:"cli_basics" ~tags:[ "cli" ] (fun ctx ->
      let out = gklock_ok ctx "info" [ "info"; "s27" ] in
      check (contains out "critical path") "info: no critical-path line";
      let out = gklock_ok ctx "gen" [ "gen"; "tiny"; "-o"; "tiny.bench" ] in
      check (contains out "wrote tiny.bench") "gen: no wrote line";
      check (Sys.file_exists (in_dir ctx "tiny.bench")) "gen: no output file";
      (* the generated file round-trips through the parser *)
      let out = gklock_ok ctx "info_gen" [ "info"; "tiny.bench" ] in
      check (contains out "tiny") "info on generated file";
      let out = gklock_ok ctx "attacks" [ "attacks" ] in
      check (contains out "sat") "attacks: registry does not list sat")

(* ----- 2. lock_attack_roundtrip ----- *)

let () =
  register ~name:"lock_attack_roundtrip" ~tags:[ "cli"; "attack" ] (fun ctx ->
      let _ = gklock_ok ctx "gen" [ "gen"; "s27"; "-o"; "chip.bench" ] in
      let out =
        gklock_ok ctx "encrypt"
          [
            "encrypt"; "chip.bench"; "--scheme"; "xor"; "-n"; "4"; "--seed";
            "7"; "-o"; "locked.bench";
          ]
      in
      let key_line = line_with ~what:"encrypt" out "key: " in
      let correct =
        String.sub key_line 5 (String.length key_line - 5) |> String.trim
      in
      let attack_args =
        [
          "attack"; "locked.bench"; "--keys"; "xk0,xk1,xk2,xk3"; "--oracle";
          "chip.bench"; "--method"; "sat"; "--seed"; "5";
        ]
      in
      let out = gklock_ok ctx "attack" attack_args in
      let rec_line = line_with ~what:"attack" out "key recovered" in
      check
        (contains rec_line correct)
        (Printf.sprintf "SAT attack recovered %S, encrypt printed key %s"
           rec_line correct);
      (* same seed, same locked design → the attack's key line is
         deterministic across runs *)
      let out2 = gklock_ok ctx "attack_again" attack_args in
      let rec_line2 = line_with ~what:"attack rerun" out2 "key recovered" in
      check (rec_line = rec_line2) "attack is not deterministic per seed";
      (* a query cap binds the attack although the CLI builds its oracle
         without one; the verification batch it refuses is not counted,
         so the telemetry shows the 2 DIP queries only *)
      let out3 =
        gklock_ok ctx "attack_query_cap"
          (attack_args @ [ "--max-queries"; "2" ])
      in
      ignore
        (line_with ~what:"attack --max-queries 2" out3
           "sat: out_of_budget_queries");
      ignore
        (line_with ~what:"attack --max-queries 2" out3
           "oracle queries: 2   "))

(* ----- 3. attack_trace_metrics ----- *)

let () =
  register ~name:"attack_trace_metrics" ~tags:[ "cli"; "obs" ] (fun ctx ->
      let _ = gklock_ok ctx "gen" [ "gen"; "tiny"; "-o"; "chip.bench" ] in
      let _ =
        gklock_ok ctx "encrypt"
          [
            "encrypt"; "chip.bench"; "--scheme"; "xor"; "-n"; "4"; "--seed";
            "3"; "-o"; "locked.bench";
          ]
      in
      let out =
        gklock_ok ctx "trace_attack"
          [
            "trace"; "--out"; "t.jsonl"; "attack"; "locked.bench"; "--keys";
            "xk0,xk1,xk2,xk3"; "--oracle"; "chip.bench"; "--metrics-out";
            "m.json";
          ]
      in
      check (contains out "valid") "trace: no validation line";
      (* re-validate the trace file through the CLI *)
      let out = gklock_ok ctx "trace_check" [ "trace"; "--check"; "t.jsonl" ] in
      check (contains out "valid") "trace --check: not valid";
      (* the metrics snapshot recorded real oracle traffic *)
      let m =
        match Cjson.of_string (read_file (in_dir ctx "m.json")) with
        | Ok j -> j
        | Error e -> fail "m.json: %s" e
      in
      match Cjson.mem_int "oracle.queries" m with
      | Some q when q > 0 -> ()
      | Some q -> fail "metrics: oracle.queries = %d" q
      | None -> fail "metrics: no oracle.queries counter in m.json")

(* ----- 4. campaign_run_resume ----- *)

let () =
  register ~name:"campaign_run_resume" ~tags:[ "campaign" ] (fun ctx ->
      let args =
        [ "campaign"; "run"; "--name"; "smoke"; "--dir"; "c"; "--workers"; "2" ]
      in
      let out = gklock_ok ~timeout_s:120.0 ctx "run1" args in
      check (contains out " 0 skipped") "first run skipped jobs";
      check (not (contains out "failed: ")) "first run had failures";
      let report1 = read_file (in_dir ctx "c/report.txt") in
      check (contains report1 "Attack matrix") "report has no attack matrix";
      (* resume over a complete store: everything skips, same report *)
      let out = gklock_ok ctx "run2" args in
      check
        (contains out "0 ran (0 ok, 0 failed, 0 timed out)")
        "resume re-ran jobs";
      let report2 = read_file (in_dir ctx "c/report.txt") in
      check (report1 = report2) "resume changed report.txt bytes")

(* ----- 5. campaign_interrupt_resume ----- *)

(* A 36-job matrix run twice: once to completion, once interrupted with
   SIGINT after the first few checkpoints and then resumed.  The
   interrupted-and-resumed campaign must converge on the byte-identical
   report.txt of the uninterrupted one. *)
let interrupt_matrix =
  {
    Campaign_job.m_name = "interrupt";
    m_tables = [];
    m_benches = [ "s27"; "tiny" ];
    m_schemes = [ "xor"; "mux"; "sarlock" ];
    m_widths = [ 4 ];
    m_attacks = [ "sat"; "brute" ];
    m_seeds = [ 1; 2; 3 ];
  }

let () =
  register ~name:"campaign_interrupt_resume" ~tags:[ "campaign"; "signals" ]
    (fun ctx ->
      let total = List.length (Campaign_job.expand interrupt_matrix) in
      let spec = in_dir ctx "spec.json" in
      let oc = open_out_bin spec in
      output_string oc
        (Cjson.to_string (Campaign_job.matrix_to_json interrupt_matrix));
      close_out oc;
      (* the two runs live under separate parents so each gets its own
         sibling store — with a shared store the second run would adopt
         the first run's results and the interrupt would never land *)
      let args dir =
        [
          "campaign"; "run"; "--spec"; "spec.json"; "--dir"; dir; "--workers";
          "1";
        ]
      in
      (* reference: one uninterrupted run *)
      let _ = gklock_ok ~timeout_s:180.0 ctx "full" (args "runA/c") in
      let report_a = read_file (in_dir ctx "runA/c/report.txt") in
      (* interrupted run: SIGINT once a few results are checkpointed (the
         store index grows one 32-byte entry per checkpointed job) *)
      let index_entries c =
        if String.length c < 8 then 0 else (String.length c - 8) / 32
      in
      let p =
        Systest_proc.spawn ~cwd:ctx.dir ~logs_dir:ctx.logs_dir ~name:"interrupted"
          ctx.gklock (args "runB/c")
      in
      let _ =
        Systest_proc.wait_for_file ~timeout_s:60.0
          (in_dir ctx "runB/store/index.bin")
          (fun c -> index_entries c >= 3)
      in
      Systest_proc.signal p Sys.sigint;
      (match Systest_proc.wait ~timeout_s:60.0 p with
      | Unix.WEXITED 3 -> ()
      | st -> fail "interrupted run: %s (wanted exit 3)" (status_str st));
      check
        (contains (Systest_proc.stderr p) "SIGINT")
        "no SIGINT acknowledgement on stderr";
      check
        (contains (Systest_proc.stdout p) "[aborted]")
        "no [aborted] marker in the stats line";
      let done_b =
        index_entries (read_file (in_dir ctx "runB/store/index.bin"))
      in
      if done_b >= total then
        fail "campaign finished (%d/%d jobs) before the interrupt landed"
          done_b total;
      (* the abort still wrote a (partial) report *)
      check
        (Sys.file_exists (in_dir ctx "runB/c/report.txt"))
        "aborted run wrote no report.txt";
      check
        (contains (read_file (in_dir ctx "runB/c/report.txt")) "pending")
        "partial report lists no pending jobs";
      (* resume: the skipped count proves the checkpoints were honoured *)
      let out = gklock_ok ~timeout_s:180.0 ctx "resume" (args "runB/c") in
      let expect = Printf.sprintf "%d skipped" done_b in
      check (contains out expect)
        (Printf.sprintf "resume: expected %S in stats line:\n%s" expect out);
      let report_b = read_file (in_dir ctx "runB/c/report.txt") in
      check (report_a = report_b)
        "interrupt→resume report.txt differs from the uninterrupted run")

(* ----- 5b. campaign_store_delta ----- *)

(* The content-addressed store end to end: a legacy results.jsonl
   migrates without changing report bytes, a widened matrix re-run
   executes only the unseen jobs (adopting the rest from the shared
   store), and gc + fsck leave the store clean. *)
let () =
  register ~name:"campaign_store_delta" ~tags:[ "campaign"; "store" ]
    (fun ctx ->
      let run ?(timeout_s = 180.0) name extra =
        gklock_ok ~timeout_s ctx name ([ "campaign"; "run" ] @ extra)
      in
      (* 1. a smoke campaign, store shared under mig/ *)
      let out1 =
        run "seed_run" [ "--name"; "smoke"; "--dir"; "mig/c"; "--workers"; "2" ]
      in
      check (contains out1 " 0 skipped") "seed run skipped jobs";
      let report1 = read_file (in_dir ctx "mig/c/report.txt") in
      (* 2. rebuild the same results as a legacy pre-CAS store *)
      let records = Job_store.load ~dir:(in_dir ctx "mig/c") in
      check (records <> []) "no records load from the seeded store";
      mkdir_p (in_dir ctx "leg/c");
      let oc = open_out_bin (in_dir ctx "leg/c/results.jsonl") in
      List.iter
        (fun r ->
          output_string oc
            (Cjson.to_string (Job_store.record_to_json r) ^ "\n"))
        records;
      close_out oc;
      (* a run over the legacy dir migrates in place: nothing executes,
         the report stays byte-identical, the JSONL is moved aside *)
      let out =
        run "migrate" [ "--name"; "smoke"; "--dir"; "leg/c"; "--workers"; "2" ]
      in
      check
        (contains out "0 ran (0 ok, 0 failed, 0 timed out)")
        "migration re-ran jobs";
      check
        (read_file (in_dir ctx "leg/c/report.txt") = report1)
        "report bytes changed across the legacy migration";
      check
        (not (Sys.file_exists (in_dir ctx "leg/c/results.jsonl")))
        "results.jsonl still present after migration";
      check
        (Sys.file_exists (in_dir ctx "leg/c/results.jsonl.migrated"))
        "migrated results.jsonl not kept";
      (* 3. widen the matrix by one seed: a sibling campaign re-runs only
         the delta and adopts the rest from the shared store *)
      let smoke =
        match Campaign_job.builtin "smoke" with
        | Some m -> m
        | None -> fail "no smoke builtin"
      in
      let old_jobs = List.length (Campaign_job.expand smoke) in
      let wide =
        { smoke with Campaign_job.m_seeds = smoke.Campaign_job.m_seeds @ [ 99 ] }
      in
      let new_jobs = List.length (Campaign_job.expand wide) - old_jobs in
      let oc = open_out_bin (in_dir ctx "wide.json") in
      output_string oc (Cjson.to_string (Campaign_job.matrix_to_json wide));
      close_out oc;
      let out =
        run "widened"
          [ "--spec"; "wide.json"; "--dir"; "mig/c2"; "--workers"; "2" ]
      in
      let expect =
        Printf.sprintf "%d ran (%d ok, 0 failed, 0 timed out), %d skipped"
          new_jobs new_jobs old_jobs
      in
      check (contains out expect)
        (Printf.sprintf "widened run: expected %S in:\n%s" expect out);
      (* 4. maintenance: gc sweeps nothing live, fsck is clean *)
      let gc_out =
        gklock_ok ctx "gc" [ "campaign"; "gc"; "--store"; "mig/store" ]
      in
      check (contains gc_out "swept") "gc printed no summary";
      let fsck_out =
        gklock_ok ctx "fsck" [ "campaign"; "fsck"; "--store"; "mig/store" ]
      in
      check (contains fsck_out "clean") "fsck not clean";
      (* the store survived gc: a re-run still executes nothing *)
      let out =
        run "rerun_after_gc"
          [ "--spec"; "wide.json"; "--dir"; "mig/c2"; "--workers"; "2" ]
      in
      check
        (contains out "0 ran (0 ok, 0 failed, 0 timed out)")
        "gc broke the store: jobs re-ran";
      let dedup_out =
        gklock_ok ctx "dedup" [ "campaign"; "dedup"; "--store"; "mig/store" ]
      in
      check (contains dedup_out "objects") "dedup printed no object counts")

(* ----- 6. serve_unix_parity ----- *)

(* A remote attack through a live daemon must reach the same key as the
   same attack against a local oracle, and a unix-socket client may shut
   the daemon down (that right is only gated on TCP). *)
let () =
  register ~name:"serve_unix_parity" ~tags:[ "daemon" ] (fun ctx ->
      let _ = gklock_ok ctx "gen" [ "gen"; "s27"; "-o"; "chip.bench" ] in
      let _ =
        gklock_ok ctx "encrypt"
          [
            "encrypt"; "chip.bench"; "--scheme"; "mux"; "-n"; "4"; "--seed";
            "11"; "-o"; "locked.bench";
          ]
      in
      let sock = in_dir ctx "oracle.sock" in
      let daemon, addr = spawn_daemon ctx "daemon" ("unix:" ^ sock) in
      check (addr = Frame_io.Unix_path sock) "daemon advertises a odd address";
      let attack oracle name =
        let out =
          gklock_ok ctx name
            [
              "attack"; "locked.bench"; "--keys"; "mk0,mk1,mk2,mk3";
              "--oracle"; oracle; "--seed"; "2";
            ]
        in
        line_with ~what:name out "key recovered"
      in
      let local = attack "chip.bench" "attack_local" in
      let remote = attack ("unix:" ^ sock) "attack_remote" in
      check (local = remote)
        (Printf.sprintf "local %S vs remote %S key lines differ" local remote);
      (* clean client-driven shutdown over unix *)
      let r = Remote_oracle.connect ~client:"systest" addr in
      Remote_oracle.shutdown_server r;
      Remote_oracle.close r;
      (match Systest_proc.wait ~timeout_s:30.0 daemon with
      | Unix.WEXITED 0 -> ()
      | st -> fail "daemon after shutdown frame: %s (wanted exit 0)"
                (status_str st));
      check (not (Sys.file_exists sock)) "daemon left its socket file behind")

(* ----- 7. serve_tcp_shutdown_gating ----- *)

let () =
  register ~name:"serve_tcp_shutdown_gating" ~tags:[ "daemon"; "security" ]
    (fun ctx ->
      (* default: a TCP client may query but not stop the service *)
      let daemon, addr = spawn_daemon ctx "daemon_gated" "tcp:127.0.0.1:0" in
      (match addr with
      | Frame_io.Tcp (_, p) -> check (p > 0) "daemon advertises port 0"
      | a -> fail "expected a tcp address, got %s" (Frame_io.addr_to_string a));
      let r = Remote_oracle.connect ~client:"systest" addr in
      check (Remote_oracle.ping r >= 0.0) "ping failed";
      (match Remote_oracle.shutdown_server r with
      | () -> fail "tcp shutdown succeeded without --allow-tcp-shutdown"
      | exception Remote_oracle.Remote_error (Wire.Not_permitted, _) -> ());
      (* the refusal must not have cost us the connection or the daemon *)
      check (Remote_oracle.ping r >= 0.0) "connection dead after refusal";
      let pins = daemon_pins r in
      let o = Remote_oracle.oracle r in
      check (Oracle.query o (asg pins 5) <> []) "query after refusal";
      Remote_oracle.close r;
      check (Systest_proc.alive daemon) "daemon died on a refused shutdown";
      Systest_proc.kill daemon;
      (* opt-in: --allow-tcp-shutdown honours the frame *)
      let daemon, addr =
        spawn_daemon ~args:[ "--allow-tcp-shutdown" ] ctx "daemon_open"
          "tcp:127.0.0.1:0"
      in
      let r = Remote_oracle.connect ~client:"systest" addr in
      Remote_oracle.shutdown_server r;
      Remote_oracle.close r;
      match Systest_proc.wait ~timeout_s:30.0 daemon with
      | Unix.WEXITED 0 -> ()
      | st -> fail "permitted tcp shutdown: %s (wanted exit 0)" (status_str st))

(* ----- 8. serve_multi_client_quota ----- *)

let () =
  register ~name:"serve_multi_client_quota" ~tags:[ "daemon"; "quota" ]
    (fun ctx ->
      let sock = in_dir ctx "oracle.sock" in
      let daemon, addr =
        spawn_daemon
          ~args:[ "--max-queries-per-client"; "5" ]
          ctx "daemon" ("unix:" ^ sock)
      in
      let a = Remote_oracle.connect ~client:"greedy" ~memo:false addr in
      let pins = daemon_pins a in
      let oa = Remote_oracle.oracle a in
      for i = 0 to 4 do
        check (Oracle.query oa (asg pins i) <> [])
          (Printf.sprintf "query %d within quota failed" i)
      done;
      (match Oracle.query oa (asg pins 5) with
      | _ -> fail "6th query exceeded the quota but was answered"
      | exception Budget.Exhausted Budget.Queries -> ());
      (* quotas are per client: a second connection is unaffected *)
      let b = Remote_oracle.connect ~client:"honest" ~memo:false addr in
      let ob = Remote_oracle.oracle b in
      for i = 0 to 4 do
        check (Oracle.query ob (asg pins i) <> [])
          (Printf.sprintf "honest client query %d failed" i)
      done;
      Remote_oracle.close a;
      Remote_oracle.close b;
      let c = Remote_oracle.connect ~client:"admin" addr in
      Remote_oracle.shutdown_server c;
      Remote_oracle.close c;
      match Systest_proc.wait ~timeout_s:30.0 daemon with
      | Unix.WEXITED 0 -> ()
      | st -> fail "daemon shutdown: %s (wanted exit 0)" (status_str st))

(* ----- 9. serve_concurrent_parity ----- *)

(* Eight concurrent clients, each with its own connection, replaying
   disjoint slices of the exhaustive s27 input space; every remote
   answer must equal the local engine's.  This drives the daemon's
   cross-client scalar coalescing from genuinely parallel sockets. *)
let () =
  register ~name:"serve_concurrent_parity" ~tags:[ "daemon"; "concurrency" ]
    (fun ctx ->
      let sock = in_dir ctx "oracle.sock" in
      let daemon, addr = spawn_daemon ctx "daemon" ("unix:" ^ sock) in
      let local =
        Oracle.of_netlist (fst (Combinationalize.run (Benchmarks.s27 ())))
      in
      let probe = Remote_oracle.connect ~client:"probe" addr in
      let pins = daemon_pins probe in
      Remote_oracle.close probe;
      let sort = List.sort compare in
      let errors = Atomic.make 0 in
      let mu = Mutex.create () in
      let messages = ref [] in
      let clients = 8 and per_client = 16 in
      let worker c () =
        try
          let r =
            Remote_oracle.connect
              ~client:(Printf.sprintf "c%d" c)
              ~memo:false addr
          in
          let o = Remote_oracle.oracle r in
          for i = 0 to per_client - 1 do
            let q = asg pins ((c * per_client) + i) in
            let got = sort (Oracle.query o q) in
            let want = sort (Oracle.query local q) in
            if got <> want then begin
              Atomic.incr errors;
              Mutex.protect mu (fun () ->
                  messages :=
                    Printf.sprintf "client %d query %d: remote ≠ local" c i
                    :: !messages)
            end
          done;
          Remote_oracle.close r
        with e ->
          Atomic.incr errors;
          Mutex.protect mu (fun () ->
              messages :=
                Printf.sprintf "client %d: %s" c (Printexc.to_string e)
                :: !messages)
      in
      let threads =
        List.init clients (fun c -> Thread.create (worker c) ())
      in
      List.iter Thread.join threads;
      if Atomic.get errors > 0 then
        fail "%d parity errors:\n%s" (Atomic.get errors)
          (String.concat "\n" !messages);
      let r = Remote_oracle.connect ~client:"admin" addr in
      Remote_oracle.shutdown_server r;
      Remote_oracle.close r;
      match Systest_proc.wait ~timeout_s:30.0 daemon with
      | Unix.WEXITED 0 -> ()
      | st -> fail "daemon shutdown: %s (wanted exit 0)" (status_str st))

(* ----- 10. gate_self_check ----- *)

(* The perf gate compared against the committed baselines must pass on
   the identity comparison and fail once a synthetic 2x slowdown is
   injected — proof that the gate actually trips. *)
let () =
  register ~name:"gate_self_check" ~tags:[ "gate" ] (fun ctx ->
      let missing =
        List.filter
          (fun f -> not (Sys.file_exists (Filename.concat ctx.repo_root f)))
          [ "BENCH_eval.json"; "BENCH_attacks.json"; "BENCH_load.json" ]
      in
      if missing <> [] then
        fail "committed baselines missing from %s: %s" ctx.repo_root
          (String.concat ", " missing);
      let gate name extra =
        let p =
          Systest_proc.spawn ~cwd:ctx.dir ~logs_dir:ctx.logs_dir ~name
            ctx.systest
            ([
               "gate"; "--baseline-dir"; ctx.repo_root; "--fresh-dir";
               ctx.repo_root;
             ]
            @ extra)
        in
        (Systest_proc.wait ~timeout_s:30.0 p, p)
      in
      (match gate "gate_identity" [] with
      | Unix.WEXITED 0, p ->
        check
          (contains (Systest_proc.stdout p) "gate:")
          "no gate summary line"
      | st, p ->
        fail "identity gate: %s (wanted exit 0)\n%s" (status_str st)
          (Systest_proc.tail (Systest_proc.stdout_path p)));
      match gate "gate_slow" [ "--inject-slowdown"; "2.0" ] with
      | Unix.WEXITED 1, p ->
        check
          (contains (Systest_proc.stdout p) "FAIL")
          "failing gate prints no FAIL rows"
      | st, _ ->
        fail "injected 2x slowdown: %s (wanted exit 1)" (status_str st))

(* ----- 11. cli_errors ----- *)

let () =
  register ~name:"cli_errors" ~tags:[ "cli" ] (fun ctx ->
      let nonzero name args =
        match gklock_any ctx name args with
        | Unix.WEXITED 0, _ ->
          fail "%s: gklock %s succeeded (wanted a failure)" name
            (String.concat " " args)
        | Unix.WEXITED _, p -> Systest_proc.stderr p
        | st, _ -> fail "%s: %s (wanted a clean nonzero exit)" name
                     (status_str st)
      in
      let err = nonzero "bad_design" [ "info"; "no_such_design" ] in
      check (err <> "") "bad design: empty stderr";
      let _ = gklock_ok ctx "gen" [ "gen"; "tiny"; "-o"; "chip.bench" ] in
      let _ =
        gklock_ok ctx "encrypt"
          [
            "encrypt"; "chip.bench"; "--scheme"; "xor"; "-n"; "2"; "--seed";
            "1"; "-o"; "locked.bench";
          ]
      in
      let err =
        nonzero "bad_method"
          [
            "attack"; "locked.bench"; "--keys"; "xk0,xk1"; "--oracle";
            "chip.bench"; "--method"; "no_such_attack";
          ]
      in
      check (contains err "unknown attack") "bad method: no diagnostic";
      let err =
        nonzero "bad_campaign" [ "campaign"; "run"; "--name"; "no_such" ]
      in
      check (contains err "unknown campaign") "bad campaign: no diagnostic";
      let err =
        nonzero "dead_oracle"
          [
            "attack"; "locked.bench"; "--keys"; "xk0,xk1"; "--oracle";
            "unix:" ^ in_dir ctx "no_daemon.sock";
          ]
      in
      check (err <> "") "dead oracle: empty stderr")
