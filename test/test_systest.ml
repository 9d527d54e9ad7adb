(* Tier-1 coverage for the system-test harness itself plus the one
   end-to-end path important enough to guard from the unit suite: the
   --allow-tcp-shutdown gate exercised against the *real* gklockd
   binary over a real TCP socket (test_net covers the same policy
   in-process; this covers the shipped executable). *)

let tmp_dir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Systest.mkdir_p d;
  d

(* ----- Systest_proc ----- *)

let test_proc_exit_capture () =
  let dir = tmp_dir "gklock_proc" in
  let p =
    Systest_proc.spawn ~logs_dir:dir ~name:"echo" "/bin/sh"
      [ "-c"; "echo out_line; echo err_line >&2; exit 7" ]
  in
  (match Systest_proc.wait ~timeout_s:10.0 p with
  | Unix.WEXITED 7 -> ()
  | _ -> Alcotest.fail "expected exit 7");
  Alcotest.(check bool) "stdout captured" true
    (Systest_proc.stdout p = "out_line\n");
  Alcotest.(check bool) "stderr captured" true
    (Systest_proc.stderr p = "err_line\n");
  Systest.rm_rf dir

let test_proc_wait_for_log () =
  let dir = tmp_dir "gklock_proc" in
  let p =
    Systest_proc.spawn ~logs_dir:dir ~name:"slow" "/bin/sh"
      [ "-c"; "echo starting; sleep 0.1; echo ready now; sleep 30" ]
  in
  let line = Systest_proc.wait_for_log ~timeout_s:10.0 p "ready" in
  Alcotest.(check string) "the matching line" "ready now" line;
  Alcotest.(check bool) "still alive" true (Systest_proc.alive p);
  Systest_proc.kill p;
  Alcotest.(check bool) "killed" false (Systest_proc.alive p);
  (* a pattern that never appears on an exited process raises Timeout
     immediately instead of burning the full timeout *)
  let t0 = Unix.gettimeofday () in
  (match Systest_proc.wait_for_log ~timeout_s:20.0 p "never_printed" with
  | _ -> Alcotest.fail "expected Timeout"
  | exception Systest_proc.Timeout _ -> ());
  Alcotest.(check bool) "failed fast" true (Unix.gettimeofday () -. t0 < 5.0);
  Systest.rm_rf dir

let test_proc_stragglers () =
  let dir = tmp_dir "gklock_proc" in
  let _p =
    Systest_proc.spawn ~logs_dir:dir ~name:"straggler" "/bin/sh"
      [ "-c"; "sleep 30" ]
  in
  Alcotest.(check bool) "at least one straggler" true
    (Systest_proc.kill_stragglers () >= 1);
  Alcotest.(check int) "idempotent" 0 (Systest_proc.kill_stragglers ());
  Systest.rm_rf dir

(* ----- ephemeral-port addresses ----- *)

let test_parse_addr_port0 () =
  (match Frame_io.parse_addr "tcp:127.0.0.1:0" with
  | Ok (Frame_io.Tcp ("127.0.0.1", 0)) -> ()
  | Ok a -> Alcotest.fail ("parsed to " ^ Frame_io.addr_to_string a)
  | Error e -> Alcotest.fail e);
  match Frame_io.parse_addr "tcp:127.0.0.1:65536" with
  | Ok _ -> Alcotest.fail "port 65536 accepted"
  | Error _ -> ()

(* ----- Perf_gate ----- *)

let doc_of_string s =
  match Cjson.of_string s with Ok j -> j | Error e -> Alcotest.fail e

(* A miniature BENCH_load.json: one row per transport. *)
let load_doc ~qps ~p99 =
  doc_of_string
    (Printf.sprintf
       {|{"schema":"gklock/bench_load/v1","rows":[
          {"transport":"unix","mode":"scalar","qps":%f,"p50_us":100.0,"p99_us":%f},
          {"transport":"tcp","mode":"batch63","qps":%f,"p50_us":120.0,"p99_us":%f}]}|}
       qps p99 (qps *. 10.0) (p99 *. 2.0))

let attacks_doc ~verdict =
  doc_of_string
    (Printf.sprintf
       {|{"schema":"gklock/bench_attacks/v2",
          "oracle":[{"name":"s1238","scalar_queries_per_sec":1000.0,
                     "batch_queries_per_sec":9000.0,
                     "batch_speedup":9.0}],
          "attacks":[{"bench":"s27","attack":"sat","verdict":"%s"}]}|}
       verdict)

let test_gate_identity_ok () =
  let base = load_doc ~qps:5000.0 ~p99:2000.0 in
  let r = Perf_gate.compare_docs [ (`Load, base, base) ] in
  Alcotest.(check bool) "identity passes" true r.Perf_gate.g_ok;
  Alcotest.(check bool) "has checks" true (r.Perf_gate.g_checks <> [])

let test_gate_trips_on_slowdown () =
  let base = load_doc ~qps:5000.0 ~p99:2000.0 in
  let r =
    Perf_gate.compare_docs ~inject_slowdown:2.0 [ (`Load, base, base) ]
  in
  Alcotest.(check bool) "2x slowdown fails the default 1.5x gate" false
    r.Perf_gate.g_ok;
  (* both directions trip: throughput divided, latency multiplied *)
  let failing k =
    List.exists
      (fun c -> c.Perf_gate.c_kind = k && not c.Perf_gate.c_ok)
      r.Perf_gate.g_checks
  in
  Alcotest.(check bool) "a throughput check failed" true
    (failing Perf_gate.Throughput);
  Alcotest.(check bool) "a latency check failed" true
    (failing Perf_gate.Latency)

let test_gate_tolerates_within_budget () =
  let base = load_doc ~qps:5000.0 ~p99:2000.0 in
  let fresh = load_doc ~qps:4000.0 ~p99:2400.0 in
  (* 20% worse on both axes: inside the default 1.5x budget *)
  let r = Perf_gate.compare_docs [ (`Load, base, fresh) ] in
  Alcotest.(check bool) "20%% slowdown passes" true r.Perf_gate.g_ok

let test_gate_verdict_flip_fails () =
  let base = attacks_doc ~verdict:"key_recovered" in
  let fresh = attacks_doc ~verdict:"gave_up" in
  let r = Perf_gate.compare_docs [ (`Attacks, base, fresh) ] in
  Alcotest.(check bool) "verdict flip fails" false r.Perf_gate.g_ok;
  (* ...even under an injected slowdown, verdicts are never scaled *)
  let r_same =
    Perf_gate.compare_docs ~inject_slowdown:1000.0
      ~max_slowdown:1e9 ~ratio_tolerance:1e9
      [ (`Attacks, base, base) ]
  in
  Alcotest.(check bool) "identical verdicts pass whatever the injection"
    true
    (List.for_all
       (fun c ->
         c.Perf_gate.c_kind <> Perf_gate.Verdict || c.Perf_gate.c_ok)
       r_same.Perf_gate.g_checks)

let test_gate_one_sided_is_skipped () =
  let base = load_doc ~qps:5000.0 ~p99:2000.0 in
  let fresh =
    doc_of_string
      {|{"schema":"gklock/bench_load/v1","rows":[
         {"transport":"unix","mode":"scalar","qps":5000.0,
          "p50_us":100.0,"p99_us":2000.0}]}|}
  in
  let r = Perf_gate.compare_docs [ (`Load, base, fresh) ] in
  Alcotest.(check bool) "missing tcp row skipped, not failed" true
    r.Perf_gate.g_ok;
  Alcotest.(check bool) "skips recorded" true (r.Perf_gate.g_skipped <> [])

let test_gate_ratio_machine_independent () =
  let base = attacks_doc ~verdict:"key_recovered" in
  let r =
    Perf_gate.compare_docs ~inject_slowdown:4.0 [ (`Attacks, base, base) ]
  in
  (* a uniform slowdown scales both sides of every speedup ratio, so
     Ratio checks must not trip *)
  Alcotest.(check bool) "ratios survive a uniform slowdown" true
    (List.for_all
       (fun c -> c.Perf_gate.c_kind <> Perf_gate.Ratio || c.Perf_gate.c_ok)
       r.Perf_gate.g_checks)

(* A miniature BENCH_eval.json with one timing_sim row. *)
let eval_doc ~events ~eps =
  doc_of_string
    (Printf.sprintf
       {|{"schema":"gklock/bench_eval/v1","benchmarks":[],
          "timing_sim":[{"name":"s5378","cycles":24,"events":%d,
                         "events_per_sec":%f,"minor_words_per_event":2.0}]}|}
       events eps)

let test_gate_sim_events_exact () =
  let base = eval_doc ~events:21321 ~eps:3e6 in
  let ids r = List.map (fun c -> c.Perf_gate.c_id) r.Perf_gate.g_checks in
  let same = Perf_gate.compare_docs ~inject_slowdown:1000.0 [ (`Eval, base, base) ] in
  Alcotest.(check (list string)) "events gated, events_per_sec not"
    [ "eval.timing_sim.s5378.events" ] (ids same);
  Alcotest.(check bool) "equal events pass whatever the speed" true same.Perf_gate.g_ok;
  let moved =
    Perf_gate.compare_docs [ (`Eval, base, eval_doc ~events:21322 ~eps:3e6) ]
  in
  Alcotest.(check bool) "one more event fails" false moved.Perf_gate.g_ok;
  (* every committed row, the largest design's included *)
  let rows_doc rows =
    doc_of_string
      (Printf.sprintf {|{"schema":"gklock/bench_eval/v1","benchmarks":[],"timing_sim":[%s]}|}
         (String.concat ","
            (List.map
               (fun (name, events) ->
                 Printf.sprintf
                   {|{"name":"%s","cycles":24,"events":%d,"events_per_sec":3e6,
                      "minor_words_per_event":2.0}|}
                   name events)
               rows)))
  in
  let committed = [ ("s5378", 21321); ("s13207", 20355); ("s38417", 57240) ] in
  let all = Perf_gate.compare_docs [ (`Eval, rows_doc committed, rows_doc committed) ] in
  Alcotest.(check (list string)) "every row gated"
    [
      "eval.timing_sim.s5378.events"; "eval.timing_sim.s13207.events";
      "eval.timing_sim.s38417.events";
    ]
    (ids all);
  Alcotest.(check bool) "equal rows pass" true all.Perf_gate.g_ok;
  let moved =
    Perf_gate.compare_docs
      [
        ( `Eval,
          rows_doc committed,
          rows_doc (List.map (fun (n, e) -> (n, if n = "s38417" then e - 1 else e)) committed) );
      ]
  in
  Alcotest.(check bool) "one fewer s38417 event fails" false moved.Perf_gate.g_ok

(* BENCH_attacks' verify rows: the mismatch count is gated exactly,
   the time per call not at all. *)
let verify_doc rows =
  doc_of_string
    (Printf.sprintf {|{"schema":"gklock/bench_attacks/v2","oracle":[],"attacks":[],"verify":[%s]}|}
       (String.concat ","
          (List.map
             (fun (name, ms, n) ->
               Printf.sprintf {|{"name":"%s","samples":64,"ms_per_call":%f,"mismatches":%d}|}
                 name ms n)
             rows)))

let test_gate_verify_mismatches_exact () =
  let committed =
    [ ("gk8-s5378", 2.0, 10); ("gk8-s13207", 3.0, 20); ("gk8-s38417", 7.0, 30);
      ("xor16-s5378-flip1", 2.0, 40) ]
  in
  let base = verify_doc committed in
  let ids r = List.map (fun c -> c.Perf_gate.c_id) r.Perf_gate.g_checks in
  let slow = verify_doc (List.map (fun (n, ms, c) -> (n, ms *. 1000.0, c)) committed) in
  let same = Perf_gate.compare_docs ~inject_slowdown:1000.0 [ (`Attacks, base, slow) ] in
  Alcotest.(check (list string)) "counts gated, times not"
    [
      "attacks.verify.gk8-s5378.mismatches"; "attacks.verify.gk8-s13207.mismatches";
      "attacks.verify.gk8-s38417.mismatches"; "attacks.verify.xor16-s5378-flip1.mismatches";
    ]
    (ids same);
  Alcotest.(check bool) "equal counts pass whatever the speed" true same.Perf_gate.g_ok;
  let moved =
    verify_doc (List.map (fun (n, ms, c) -> (n, ms, if n = "gk8-s38417" then c + 1 else c)) committed)
  in
  Alcotest.(check bool) "one more s38417 mismatch fails" false
    (Perf_gate.compare_docs [ (`Attacks, base, moved) ]).Perf_gate.g_ok

(* BENCH_attacks' attack rows: the verdict and the DIP, chip-query and
   conflict counts are gated exactly, the wall time not at all. *)
let attack_rows_doc rows =
  doc_of_string
    (Printf.sprintf {|{"schema":"gklock/bench_attacks/v2","oracle":[],"attacks":[%s]}|}
       (String.concat ","
          (List.map
             (fun (attack, (iterations, queries, conflicts), elapsed) ->
               Printf.sprintf
                 {|{"bench":"s27","attack":"%s","verdict":"key_recovered","gave_up_reason":null,
                    "iterations":%d,"queries":%d,"conflicts":%d,"elapsed_s":%f}|}
                 attack iterations queries conflicts elapsed)
             rows)))

let test_gate_attack_counts_exact () =
  let committed = [ ("sat", (4, 58, 33), 0.0005); ("tcf2", (2, 57, 38), 0.0008) ] in
  let base = attack_rows_doc committed in
  let ids r = List.map (fun c -> c.Perf_gate.c_id) r.Perf_gate.g_checks in
  let slow = attack_rows_doc (List.map (fun (a, c, t) -> (a, c, t *. 1000.0)) committed) in
  let same = Perf_gate.compare_docs ~inject_slowdown:1000.0 [ (`Attacks, base, slow) ] in
  Alcotest.(check (list string)) "verdicts and counts gated, times not"
    (List.concat_map
       (fun (a, _, _) ->
         List.map (Printf.sprintf "attacks.s27.%s.%s" a)
           [ "verdict"; "iterations"; "queries"; "conflicts" ])
       committed)
    (ids same);
  Alcotest.(check bool) "equal counts pass whatever the speed" true same.Perf_gate.g_ok;
  List.iter
    (fun (what, bump) ->
      let moved =
        attack_rows_doc
          (List.map (fun (a, c, t) -> (a, (if a = "tcf2" then bump c else c), t)) committed)
      in
      let r = Perf_gate.compare_docs [ (`Attacks, base, moved) ] in
      Alcotest.(check bool) ("one more tcf2 " ^ what ^ " fails") false r.Perf_gate.g_ok;
      Alcotest.(check (list string)) ("only tcf2's " ^ what ^ " fails")
        [ "attacks.s27.tcf2." ^ what ]
        (List.filter_map
           (fun c -> if c.Perf_gate.c_ok then None else Some c.Perf_gate.c_id)
           r.Perf_gate.g_checks))
    [
      ("iterations", fun (i, q, c) -> (i + 1, q, c));
      ("queries", fun (i, q, c) -> (i, q + 1, c));
      ("conflicts", fun (i, q, c) -> (i, q, c + 1));
    ]

(* BENCH_attacks' dip_loop rows: the DIPs and solver counts are gated
   exactly, the phase times not at all. *)
let dip_loop_doc rows =
  doc_of_string
    (Printf.sprintf {|{"schema":"gklock/bench_attacks/v2","oracle":[],"attacks":[],"dip_loop":[%s]}|}
       (String.concat ","
          (List.map
             (fun (name, counts, ms) ->
               Printf.sprintf
                 {|{"name":"%s","lock_seed":1,%s,"create_ms":%f,"solve_ms":%f,
                    "constrain_ms":%f,"rest_ms":%f,"attack_ms":%f}|}
                 name
                 (String.concat "," (List.map (fun (f, n) -> Printf.sprintf {|"%s":%d|} f n) counts))
                 ms ms ms ms ms)
             rows)))

let test_gate_dip_loop_counts_exact () =
  let counts =
    [ ("dips", 63); ("miter_vars", 426); ("miter_clauses", 1223); ("vars", 1812);
      ("clauses", 5490); ("conflicts", 130); ("propagations", 87879) ]
  in
  let committed = [ ("sarlock6-s1238-1", counts, 10.0); ("sarlock6-s1238-2", counts, 12.0) ] in
  let base = dip_loop_doc committed in
  let ids r = List.map (fun c -> c.Perf_gate.c_id) r.Perf_gate.g_checks in
  let slow = dip_loop_doc (List.map (fun (n, c, ms) -> (n, c, ms *. 1000.0)) committed) in
  let same = Perf_gate.compare_docs ~inject_slowdown:1000.0 [ (`Attacks, base, slow) ] in
  Alcotest.(check (list string)) "counts gated, times not"
    (List.concat_map
       (fun (n, c, _) -> List.map (fun (f, _) -> Printf.sprintf "attacks.dip_loop.%s.%s" n f) c)
       committed)
    (ids same);
  Alcotest.(check bool) "equal counts pass whatever the speed" true same.Perf_gate.g_ok;
  List.iter
    (fun (field, _) ->
      let moved =
        dip_loop_doc
          (List.map
             (fun (n, c, ms) ->
               ( n,
                 (if n = "sarlock6-s1238-2" then
                    List.map (fun (f, v) -> (f, if f = field then v + 1 else v)) c
                  else c),
                 ms ))
             committed)
      in
      let r = Perf_gate.compare_docs [ (`Attacks, base, moved) ] in
      Alcotest.(check (list string)) ("one more " ^ field ^ " fails alone")
        [ "attacks.dip_loop.sarlock6-s1238-2." ^ field ]
        (List.filter_map
           (fun c -> if c.Perf_gate.c_ok then None else Some c.Perf_gate.c_id)
           r.Perf_gate.g_checks);
      Alcotest.(check bool) ("one more " ^ field ^ " fails the gate") false r.Perf_gate.g_ok)
    counts

(* BENCH_eval's netlist rows: sizes and the combinationalized MD5 are
   gated exactly, the four times not at all. *)
let netlist_doc rows =
  doc_of_string
    (Printf.sprintf {|{"schema":"gklock/bench_eval/v1","benchmarks":[],"timing_sim":[],"netlist":[%s]}|}
       (String.concat ","
          (List.map
             (fun (name, ms, md5) ->
               Printf.sprintf
                 {|{"name":"%s","nodes":811,"ffs":163,"generate_ms":%f,"group_ms":%f,
                    "lock_ms":%f,"combinationalize_ms":%f,"comb_md5":"%s"}|}
                 name ms ms ms ms md5)
             rows)))

let test_gate_netlist_md5_exact () =
  let committed =
    [ ("s5378", 2.0, "33cddea221daed1d22ae0bc407d6672b"); ("s38417", 15.0, "55fee3c696a3697017651280afe61e6c") ]
  in
  let base = netlist_doc committed in
  let ids r = List.map (fun c -> c.Perf_gate.c_id) r.Perf_gate.g_checks in
  let slow = netlist_doc (List.map (fun (n, ms, m) -> (n, ms *. 1000.0, m)) committed) in
  let same = Perf_gate.compare_docs ~inject_slowdown:1000.0 [ (`Eval, base, slow) ] in
  Alcotest.(check (list string)) "sizes and MD5s gated, times not"
    (List.concat_map
       (fun (n, _, _) -> List.map (Printf.sprintf "eval.netlist.%s.%s" n) [ "nodes"; "ffs"; "comb_md5" ])
       committed)
    (ids same);
  Alcotest.(check bool) "equal bytes pass whatever the speed" true same.Perf_gate.g_ok;
  let changed =
    netlist_doc
      (List.map
         (fun (n, ms, m) -> (n, ms, if n = "s38417" then "55fee3c696a3697017651280afe61e6d" else m))
         committed)
  in
  let r = Perf_gate.compare_docs [ (`Eval, base, changed) ] in
  Alcotest.(check bool) "a changed MD5 fails" false r.Perf_gate.g_ok;
  Alcotest.(check (list string)) "only that MD5 fails" [ "eval.netlist.s38417.comb_md5" ]
    (List.filter_map
       (fun c -> if c.Perf_gate.c_ok then None else Some c.Perf_gate.c_id)
       r.Perf_gate.g_checks)

(* ----- real-binary TCP shutdown gating ----- *)

let gklockd_exe = Filename.concat (Filename.dirname Sys.argv.(0)) "../bin/gklockd.exe"

let with_daemon ~args f =
  let dir = tmp_dir "gklock_gklockd" in
  let d =
    Systest_proc.spawn ~logs_dir:dir ~name:"gklockd" gklockd_exe
      ([ "s27"; "--listen"; "tcp:127.0.0.1:0" ] @ args)
  in
  Fun.protect
    ~finally:(fun () ->
      Systest_proc.kill d;
      Systest.rm_rf dir)
    (fun () -> f d (Load_gen.bound_addr d))

let test_tcp_shutdown_refused_e2e () =
  if not (Sys.file_exists gklockd_exe) then
    Alcotest.skip ()
  else
    with_daemon ~args:[] (fun d addr ->
        let r = Remote_oracle.connect ~client:"tier1" addr in
        (match Remote_oracle.shutdown_server r with
        | () -> Alcotest.fail "shutdown honoured without --allow-tcp-shutdown"
        | exception Remote_oracle.Remote_error (Wire.Not_permitted, _) -> ());
        Alcotest.(check bool) "connection survives the refusal" true
          (Remote_oracle.ping r >= 0.0);
        Remote_oracle.close r;
        Alcotest.(check bool) "daemon survives the refusal" true
          (Systest_proc.alive d))

let test_tcp_shutdown_allowed_e2e () =
  if not (Sys.file_exists gklockd_exe) then
    Alcotest.skip ()
  else
    with_daemon ~args:[ "--allow-tcp-shutdown" ] (fun d addr ->
        let r = Remote_oracle.connect ~client:"tier1" addr in
        Remote_oracle.shutdown_server r;
        Remote_oracle.close r;
        match Systest_proc.wait ~timeout_s:20.0 d with
        | Unix.WEXITED 0 -> ()
        | _ -> Alcotest.fail "daemon did not exit 0 on a permitted shutdown")

(* A traced start-up: design loading and per-design preparation each
   get a daemon-side span carrying the design's size, and the whole
   trace passes the schema check. *)
let test_traced_startup_e2e () =
  if not (Sys.file_exists gklockd_exe) then
    Alcotest.skip ()
  else begin
    let dir = tmp_dir "gklock_gklockd_trace" in
    let trace = Filename.concat dir "gklockd.jsonl" in
    let env =
      Array.append
        (Array.of_list
           (List.filter
              (fun kv -> not (String.starts_with ~prefix:"GKLOCK_" kv))
              (Array.to_list (Unix.environment ()))))
        [| "GKLOCK_TRACE=" ^ trace |]
    in
    let d =
      Systest_proc.spawn ~env ~logs_dir:dir ~name:"gklockd" gklockd_exe
        [ "s1238"; "--listen"; "tcp:127.0.0.1:0"; "--allow-tcp-shutdown" ]
    in
    Fun.protect
      ~finally:(fun () ->
        Systest_proc.kill d;
        Systest.rm_rf dir)
      (fun () ->
        let r = Remote_oracle.connect ~client:"tier1" (Load_gen.bound_addr d) in
        Remote_oracle.shutdown_server r;
        Remote_oracle.close r;
        (match Systest_proc.wait ~timeout_s:20.0 d with
        | Unix.WEXITED 0 -> ()
        | _ -> Alcotest.fail "daemon did not exit 0");
        (match Obs.Trace.validate_file trace with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        let events =
          In_channel.with_open_text trace In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (( <> ) "")
          |> List.map (fun l -> match Cjson.of_string l with Ok j -> j | Error e -> Alcotest.fail e)
        in
        let sizes name ph =
          List.filter_map
            (fun j ->
              if Cjson.mem_str "name" j = Some name && Cjson.mem_str "ph" j = Some ph then
                Option.bind (Cjson.member "args" j) (fun a ->
                    match (Cjson.mem_int "nodes" a, Cjson.mem_int "ffs" a) with
                    | Some n, Some f -> Some (n, f)
                    | _ -> None)
              else None)
            events
        in
        Alcotest.(check (list (pair int int))) "load span closes with the design's size"
          [ (356, 18) ] (sizes "gklockd.load" "E");
        Alcotest.(check (list (pair int int))) "prepare span opens with the design's size"
          [ (356, 18) ] (sizes "gklockd.prepare" "B"))
  end

let suites =
  [
    ( "systest_proc",
      [
        Alcotest.test_case "exit code and captured streams" `Quick
          test_proc_exit_capture;
        Alcotest.test_case "wait_for_log" `Quick test_proc_wait_for_log;
        Alcotest.test_case "kill_stragglers" `Quick test_proc_stragglers;
      ] );
    ( "systest_gate",
      [
        Alcotest.test_case "parse_addr accepts port 0" `Quick
          test_parse_addr_port0;
        Alcotest.test_case "identity comparison passes" `Quick
          test_gate_identity_ok;
        Alcotest.test_case "injected 2x slowdown trips" `Quick
          test_gate_trips_on_slowdown;
        Alcotest.test_case "20% slowdown within budget" `Quick
          test_gate_tolerates_within_budget;
        Alcotest.test_case "verdict flip fails" `Quick
          test_gate_verdict_flip_fails;
        Alcotest.test_case "one-sided metrics skip" `Quick
          test_gate_one_sided_is_skipped;
        Alcotest.test_case "ratios are machine-independent" `Quick
          test_gate_ratio_machine_independent;
        Alcotest.test_case "timing_sim events are exact" `Quick
          test_gate_sim_events_exact;
        Alcotest.test_case "verify mismatch counts are exact" `Quick
          test_gate_verify_mismatches_exact;
        Alcotest.test_case "attack counts are exact" `Quick
          test_gate_attack_counts_exact;
        Alcotest.test_case "netlist sizes and MD5s are exact" `Quick
          test_gate_netlist_md5_exact;
        Alcotest.test_case "dip_loop counts are exact" `Quick
          test_gate_dip_loop_counts_exact;
      ] );
    ( "systest_daemon",
      [
        Alcotest.test_case "tcp shutdown refused by default (real binary)"
          `Quick test_tcp_shutdown_refused_e2e;
        Alcotest.test_case "tcp shutdown honoured with flag (real binary)"
          `Quick test_tcp_shutdown_allowed_e2e;
        Alcotest.test_case "traced start-up has load and prepare spans (real binary)"
          `Quick test_traced_startup_e2e;
      ] );
  ]
