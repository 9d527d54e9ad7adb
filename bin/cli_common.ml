(* Helpers shared by the gklock CLI and the gklockd daemon binary
   (every module in bin/ is linked into both executables). *)

open Cmdliner

let load_design path =
  match Benchmarks.find_spec path with
  | Some spec -> Benchmarks.load spec
  | None ->
    if path = "s27" then Benchmarks.s27 ()
    else if path = "tiny" then Benchmarks.tiny ()
    else if Filename.check_suffix path ".v" then Verilog.parse_file path
    else Bench_format.parse_file path

let die fmt = Printf.ksprintf (fun msg -> Printf.eprintf "%s\n" msg; exit 1) fmt

(* "NAME=PATH" picks the advertised design name; a bare PATH advertises
   its basename without extension (so `gklockd locked.bench` serves
   design "locked", and `gklockd s27` serves "s27"). *)
let split_design_spec s =
  match String.index_opt s '=' with
  | Some i ->
    (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> (Filename.remove_extension (Filename.basename s), s)

let parse_listen s =
  match Frame_io.parse_addr s with
  | Ok a -> a
  | Error e -> die "gklockd: %s" e

(* ----- the serve term, shared by `gklock serve` and `gklockd` ----- *)

let serve_doc = "Serve oracle queries for locked designs over a socket"

let serve_man =
  [
    `S Manpage.s_description;
    `P
      "Loads each DESIGN (a .bench/.v file or builtin name; NAME=PATH picks \
       the advertised name), compiles one oracle per design, and answers \
       queries over the binary wire protocol (DESIGN.md \xc2\xa76h) until a \
       client sends a shutdown frame.  Scalar queries from all clients are \
       coalesced into 63-lane engine words; explicit batch queries evaluate \
       in one pass.";
    `P
      "Attack through it from another process with: $(b,gklock attack LOCKED \
       --keys ... --oracle unix:PATH) (or $(b,tcp:HOST:PORT)).";
  ]

let serve_term =
  let designs_arg =
    let doc =
      "Designs to host: .bench or structural-Verilog files, builtin names, \
       or NAME=PATH to choose the advertised design name."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"DESIGN" ~doc)
  in
  let listen_arg =
    let doc = "Listen address: unix:PATH, tcp:HOST:PORT, or a bare socket path." in
    Arg.(
      value & opt string "unix:gklockd.sock"
      & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let max_queries_arg =
    let doc = "Per-client oracle-query quota (over-quota requests get a \
               structured error frame)." in
    Arg.(
      value & opt (some int) None
      & info [ "max-queries-per-client" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Per-client wall-clock quota in seconds, from connect time." in
    Arg.(
      value & opt (some float) None
      & info [ "client-deadline" ] ~docv:"S" ~doc)
  in
  let flush_delay_arg =
    let doc =
      "Max seconds a pending scalar query waits for lane-mates while some \
       open connection could still send one."
    in
    Arg.(
      value & opt float Gkd_server.default_config.Gkd_server.flush_delay_s
      & info [ "flush-delay" ] ~docv:"S" ~doc)
  in
  let no_memo_arg =
    let doc = "Disable the server-side oracle memo (every query evaluates)." in
    Arg.(value & flag & info [ "no-memo" ] ~doc)
  in
  let tcp_shutdown_arg =
    let doc = "Honor shutdown frames on a TCP listener (off by default: \
               any host that can reach the port could kill the daemon; \
               unix-socket listeners always honor them)." in
    Arg.(value & flag & info [ "allow-tcp-shutdown" ] ~doc)
  in
  let metrics_out_arg =
    let doc = "Dump the metrics registry (queue depth, batch fill, per-client \
               queries, oracle memo stats) to $(docv) periodically and on \
               shutdown." in
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let metrics_interval_arg =
    let doc = "Seconds between periodic metrics dumps." in
    Arg.(
      value
      & opt float Gkd_server.default_config.Gkd_server.metrics_interval_s
      & info [ "metrics-interval" ] ~docv:"S" ~doc)
  in
  let run listen designs max_queries deadline flush_delay no_memo
      tcp_shutdown metrics_out metrics_interval =
    let addr = parse_listen listen in
    (* one span per design, so a traced start-up shows where it went *)
    let designs =
      List.map
        (fun spec ->
          let name, path = split_design_spec spec in
          let sp = Obs.Trace.span_begin ~args:[ ("design", Cjson.Str name) ] "gklockd.load" in
          match load_design path with
          | net ->
            Obs.Trace.span_end sp
              ~args:
                [
                  ("nodes", Cjson.Int (Netlist.num_nodes net));
                  ("ffs", Cjson.Int (List.length (Netlist.ffs net)));
                ];
            (name, net)
          | exception e ->
            Obs.Trace.span_end sp;
            raise e)
        designs
    in
    let config =
      {
        Gkd_server.default_config with
        Gkd_server.flush_delay_s = flush_delay;
        max_queries_per_client = max_queries;
        client_deadline_s = deadline;
        oracle_memo = not no_memo;
        allow_tcp_shutdown = tcp_shutdown;
        metrics_out;
        metrics_interval_s = metrics_interval;
      }
    in
    let t = Gkd_server.create ~config ~listen:addr designs in
    Printf.printf "gklockd: listening on %s\n"
      (Frame_io.addr_to_string (Gkd_server.address t));
    List.iter
      (fun (name, net) ->
        Printf.printf "gklockd: serving %s (%d nodes)\n" name
          (Netlist.num_nodes net))
      designs;
    print_string "gklockd: send a shutdown frame to stop\n";
    flush stdout;
    Gkd_server.start t;
    Gkd_server.wait t;
    print_endline "gklockd: shut down cleanly"
  in
  Term.(
    const run $ listen_arg $ designs_arg $ max_queries_arg $ deadline_arg
    $ flush_delay_arg $ no_memo_arg $ tcp_shutdown_arg $ metrics_out_arg
    $ metrics_interval_arg)
