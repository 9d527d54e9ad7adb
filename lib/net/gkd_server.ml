let m_connections = Obs.Metrics.counter "gklockd.connections"
let m_queries = Obs.Metrics.counter "gklockd.queries"
let m_bad_frames = Obs.Metrics.counter "gklockd.bad_frames"
let m_over_quota = Obs.Metrics.counter "gklockd.over_quota"
let m_flushes = Obs.Metrics.counter "gklockd.flushes"
let g_queue_depth = Obs.Metrics.gauge "gklockd.queue_depth"
let h_batch_fill = Obs.Metrics.histogram "gklockd.batch_fill"
let h_queue_wait = Obs.Metrics.histogram "gklockd.queue_wait_s"

(* Per-client query counters are keyed by the client-chosen [Hello]
   name, which is attacker-controlled: cap how many distinct counters a
   long-running daemon will ever register, and fold the rest (and
   clients that never send a [Hello]) into one shared counter. *)
let max_client_counters = 256
let m_other_queries = Obs.Metrics.counter "gklockd.client_queries.other"

type config = {
  flush_delay_s : float;
  max_queries_per_client : int option;
  client_deadline_s : float option;
  oracle_memo : bool;
  oracle_memo_cap : int option;
  allow_tcp_shutdown : bool;
  metrics_out : string option;
  metrics_interval_s : float;
  server_name : string;
}

let default_config =
  {
    flush_delay_s = 0.002;
    max_queries_per_client = None;
    client_deadline_s = None;
    oracle_memo = true;
    oracle_memo_cap = Some 65536;
    allow_tcp_shutdown = false;
    metrics_out = None;
    metrics_interval_s = 5.0;
    server_name = "gklockd/1";
  }

type conn = {
  c_fd : Unix.file_descr;
  mutable c_name : string;
  c_budget : Budget.t;
  c_wmu : Mutex.t;  (* serializes frame writes; guards c_closed *)
  mutable c_closed : bool;
  mutable c_counter : Obs.Metrics.counter;
  c_pending : int Atomic.t;
      (* this connection's [Query] lanes that are queued or not yet
         answered, on any design *)
}

type pending = {
  p_conn : conn;
  p_id : int;
  p_q : string;  (* packed input bits *)
  p_t : float;  (* arrival time, for queue-wait accounting *)
}

type design = {
  ds_name : string;
  ds_oracle : Oracle.t;
  ds_n_in : int;
  ds_n_out : int;
  ds_omu : Mutex.t;
      (* serializes every [Oracle.query_packed] on [ds_oracle]: the
         oracle's engine scratch and memo table are shared mutable
         state, and evaluations run both on reader threads (explicit
         [Query_batch] frames) and on the design's flusher thread *)
  ds_info : Wire.design_info;
  ds_mu : Mutex.t;
  ds_nonempty : Condition.t;
  ds_q : pending Queue.t;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : Frame_io.addr;
  designs : design list;
  by_name : (string, design) Hashtbl.t;
  client_counters : (string, Obs.Metrics.counter) Hashtbl.t;
      (* client-name -> counter, bounded by [max_client_counters] *)
  mu : Mutex.t;  (* conns / readers / lifecycle state *)
  stop_cond : Condition.t;
  mutable conns : conn list;
  mutable readers : Thread.t list;
  mutable stopping : bool;
  mutable stopped : bool;
  mutable listener_closed : bool;
  mutable acceptor : Thread.t option;
  mutable flushers : Thread.t list;
  mutable dumper : Thread.t option;
  mutable next_conn : int;
  live : int Atomic.t;  (* open connections *)
  waiting : int Atomic.t;  (* open connections with [c_pending > 0] *)
}

(* ----- creation ----- *)

let combinational net =
  if Netlist.ffs net = [] then net else fst (Combinationalize.run net)

let mk_design cfg (name, net) =
  if name = "" then invalid_arg "Gkd_server.create: empty design name";
  Obs.Trace.with_span
    ~args:
      [
        ("design", Cjson.Str name);
        ("nodes", Cjson.Int (Netlist.num_nodes net));
        ("ffs", Cjson.Int (List.length (Netlist.ffs net)));
      ]
    "gklockd.prepare"
  @@ fun () ->
  let comb = combinational net in
  let oracle =
    Oracle.of_netlist ~memo:cfg.oracle_memo ?memo_cap:cfg.oracle_memo_cap comb
  in
  let d_inputs = Oracle.input_names oracle in
  let d_outputs = List.map fst (Netlist.outputs comb) in
  {
    ds_name = name;
    ds_oracle = oracle;
    ds_n_in = List.length d_inputs;
    ds_n_out = List.length d_outputs;
    ds_omu = Mutex.create ();
    ds_info =
      {
        Wire.d_name = name;
        d_inputs;
        d_outputs;
        d_cells = Netlist.num_nodes comb;
      };
    ds_mu = Mutex.create ();
    ds_nonempty = Condition.create ();
    ds_q = Queue.create ();
  }

let create ~config ~listen designs =
  if config.flush_delay_s <= 0.0 then
    invalid_arg "Gkd_server.create: flush_delay_s must be > 0";
  let by_name = Hashtbl.create 8 in
  let designs =
    List.map
      (fun d ->
        let ds = mk_design config d in
        if Hashtbl.mem by_name ds.ds_name then
          invalid_arg
            (Printf.sprintf "Gkd_server.create: duplicate design %S" ds.ds_name);
        Hashtbl.replace by_name ds.ds_name ds;
        ds)
      designs
  in
  let listen_fd = Frame_io.listen listen in
  let bound =
    match listen with
    | Frame_io.Tcp (host, 0) -> (
      match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, port) -> Frame_io.Tcp (host, port)
      | _ -> listen)
    | a -> a
  in
  {
    cfg = config;
    listen_fd;
    bound;
    designs;
    by_name;
    client_counters = Hashtbl.create 16;
    mu = Mutex.create ();
    stop_cond = Condition.create ();
    conns = [];
    readers = [];
    stopping = false;
    stopped = false;
    listener_closed = false;
    acceptor = None;
    flushers = [];
    dumper = None;
    next_conn = 0;
    live = Atomic.make 0;
    waiting = Atomic.make 0;
  }

let address t = t.bound

let live_connections t = Atomic.get t.live

let design_oracle t name =
  Option.map (fun ds -> ds.ds_oracle) (Hashtbl.find_opt t.by_name name)

(* ----- replies -----

   Writes to a connection come from its reader thread and from flusher
   threads, so they serialize on [c_wmu]; the same mutex guards
   [c_closed], which the close path sets before releasing the fd, so a
   late reply to a dead client is a silent no-op instead of a write to a
   recycled descriptor.

   [reply] must never raise: it runs on flusher threads, where an
   escaping exception would kill the flusher and permanently hang every
   scalar client of the design.  Beyond socket errors, [Wire.encode]
   raises [Invalid_argument] when the reply itself cannot be framed — a
   [Batch_result] can exceed [Wire.max_payload] even though the request
   fit (designs with more/longer output names than inputs) — so that
   case degrades to a structured [Server_error] frame telling the
   client to split its batch. *)

let reply conn ~id msg =
  Mutex.lock conn.c_wmu;
  (try
     if not conn.c_closed then
       try Frame_io.write_frame conn.c_fd ~id msg
       with Invalid_argument _ -> (
         match msg with
         | Wire.Error _ -> ()  (* unencodable error frame: give up *)
         | _ ->
           Frame_io.write_frame conn.c_fd ~id
             (Wire.Error
                {
                  code = Wire.Server_error;
                  detail =
                    Printf.sprintf
                      "reply (%s) exceeds the %d-byte frame cap; split the \
                       batch into smaller chunks"
                      (Wire.msg_type_name msg) Wire.max_payload;
                }))
   with Unix.Unix_error _ | Sys_error _ -> ());
  Mutex.unlock conn.c_wmu

let reply_error conn ~id code detail =
  reply conn ~id (Wire.Error { code; detail })

let bad_width conn ~id ds n_bits =
  reply_error conn ~id Wire.Bad_query
    (Printf.sprintf "design %S has %d inputs, the query carries %d bits"
       ds.ds_name ds.ds_n_in n_bits)

let quota_code = function
  | Budget.Queries | Budget.Iterations -> Wire.Over_quota_queries
  | Budget.Deadline -> Wire.Over_quota_deadline

(* ----- shutdown plumbing ----- *)

(* Only ever close the listener once; the acceptor thread normally does
   it on exit (closing the fd under a blocked [accept] in another thread
   would not wake it and risks fd reuse). *)
let close_listener t =
  Mutex.lock t.mu;
  if not t.listener_closed then begin
    t.listener_closed <- true;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
  end;
  Mutex.unlock t.mu

let initiate_stop t =
  Mutex.lock t.mu;
  let first = not t.stopping in
  if first then begin
    t.stopping <- true;
    Condition.broadcast t.stop_cond
  end;
  Mutex.unlock t.mu;
  if first then begin
    (* wake the acceptor: shutdown unblocks a pending [accept] on
       Linux, and the nudge connection covers platforms where it does
       not — the acceptor sees [stopping] either way and exits *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close (Frame_io.connect t.bound) with
    | Unix.Unix_error _ | Sys_error _ -> ());
    List.iter
      (fun ds ->
        Mutex.lock ds.ds_mu;
        Condition.broadcast ds.ds_nonempty;
        Mutex.unlock ds.ds_mu)
      t.designs
  end

(* Reader-side connection teardown.  Membership in [t.conns] is the
   invariant "fd is open": both close (here) and the shutdown wake-up in
   [wait] run under [t.mu], so neither ever touches a recycled fd. *)
let close_conn t conn =
  Mutex.lock t.mu;
  if List.memq conn t.conns then begin
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    Atomic.decr t.live;
    Mutex.lock conn.c_wmu;
    conn.c_closed <- true;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    Mutex.unlock conn.c_wmu
  end;
  Mutex.unlock t.mu

(* ----- request handling (reader threads) ----- *)

let sanitize_name s =
  let s = if String.length s > 64 then String.sub s 0 64 else s in
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ch
      | _ -> '_')
    s

let find_design t name = Hashtbl.find_opt t.by_name name

(* All engine work on a design funnels through here: reader threads
   (explicit batches) and the design's flusher contend on [ds_omu], so
   the oracle's scratch buffers and memo are only ever touched by one
   thread at a time.  Lanes are packed bits of the design's input
   count, checked on arrival, so no name is ever resolved. *)
let oracle_batch ds qs =
  Mutex.lock ds.ds_omu;
  match Oracle.query_packed ds.ds_oracle qs with
  | rs ->
    Mutex.unlock ds.ds_omu;
    rs
  | exception e ->
    Mutex.unlock ds.ds_omu;
    raise e

let client_counter t name =
  Mutex.lock t.mu;
  let c =
    match Hashtbl.find_opt t.client_counters name with
    | Some c -> c
    | None ->
      if Hashtbl.length t.client_counters >= max_client_counters then
        m_other_queries
      else begin
        let c = Obs.Metrics.counter ("gklockd.client_queries." ^ name) in
        Hashtbl.replace t.client_counters name c;
        c
      end
  in
  Mutex.unlock t.mu;
  c

(* Returns [false] when the reader loop should stop. *)
let handle t conn ~id msg =
  Obs.Trace.with_span
    ~args:
      [
        ("type", Cjson.Str (Wire.msg_type_name msg));
        ("client", Cjson.Str conn.c_name);
      ]
    "gklockd.request"
    (fun () ->
      match msg with
      | Wire.Hello { client; proto } ->
        if proto <> Wire.protocol_version then begin
          reply_error conn ~id Wire.Unsupported_version
            (Printf.sprintf "server speaks protocol %d, client asked for %d"
               Wire.protocol_version proto);
          true
        end
        else begin
          conn.c_name <- sanitize_name client;
          conn.c_counter <- client_counter t conn.c_name;
          reply conn ~id
            (Wire.Hello_ack
               { server = t.cfg.server_name; proto = Wire.protocol_version });
          true
        end
      | Wire.List_designs ->
        reply conn ~id (Wire.Designs (List.map (fun d -> d.ds_info) t.designs));
        true
      | Wire.Ping ->
        reply conn ~id Wire.Pong;
        true
      | Wire.Shutdown -> (
        (* on a unix: socket, anyone who can open the path may stop the
           daemon (same trust domain as the process); on tcp: any
           reachable host could, so remote shutdown is opt-in there *)
        match t.bound with
        | Frame_io.Tcp _ when not t.cfg.allow_tcp_shutdown ->
          reply_error conn ~id Wire.Not_permitted
            "shutdown over tcp is disabled (start the server with \
             allow_tcp_shutdown / --allow-tcp-shutdown to enable it)";
          true
        | Frame_io.Unix_path _ | Frame_io.Tcp _ ->
          reply conn ~id Wire.Shutdown_ack;
          initiate_stop t;
          false)
      | Wire.Query { design; n_bits; bits } -> (
        match find_design t design with
        | None ->
          reply_error conn ~id Wire.Unknown_design
            (Printf.sprintf "design %S is not hosted here" design);
          true
        | Some ds when n_bits <> ds.ds_n_in ->
          bad_width conn ~id ds n_bits;
          true
        | Some ds ->
          if t.stopping then begin
            reply_error conn ~id Wire.Shutting_down "server is shutting down";
            true
          end
          else begin
            Mutex.lock ds.ds_mu;
            (* counted before the push and under the queue's lock: this
               design's flusher never sees the lane without the count,
               nor the count without the lane *)
            if Atomic.fetch_and_add conn.c_pending 1 = 0 then
              Atomic.incr t.waiting;
            Queue.push
              { p_conn = conn; p_id = id; p_q = bits;
                p_t = Unix.gettimeofday () }
              ds.ds_q;
            let depth = Queue.length ds.ds_q in
            Condition.signal ds.ds_nonempty;
            Mutex.unlock ds.ds_mu;
            Obs.Metrics.set g_queue_depth (float_of_int depth);
            true
          end)
      | Wire.Query_batch { design; n_bits; vectors } -> (
        match find_design t design with
        | None ->
          reply_error conn ~id Wire.Unknown_design
            (Printf.sprintf "design %S is not hosted here" design);
          true
        | Some ds when n_bits <> ds.ds_n_in ->
          bad_width conn ~id ds n_bits;
          true
        | Some ds -> (
          let n = Array.length vectors in
          match Budget.note_queries conn.c_budget n with
          | exception Budget.Exhausted r ->
            Obs.Metrics.incr m_over_quota;
            reply_error conn ~id (quota_code r)
              (Printf.sprintf "batch of %d refused: client %s quota exhausted"
                 n (Budget.reason_name r));
            true
          | () -> (
            Obs.Metrics.add m_queries n;
            Obs.Metrics.add conn.c_counter n;
            match oracle_batch ds vectors with
            | rs ->
              reply conn ~id
                (Wire.Batch_result { n_bits = ds.ds_n_out; vectors = rs });
              true
            | exception Invalid_argument m ->
              reply_error conn ~id Wire.Bad_query m;
              true
            | exception e ->
              reply_error conn ~id Wire.Server_error (Printexc.to_string e);
              true)))
      | Wire.Hello_ack _ | Wire.Designs _ | Wire.Result _
      | Wire.Batch_result _ | Wire.Pong | Wire.Shutdown_ack | Wire.Error _ ->
        (* server-to-client messages arriving at the server *)
        reply_error conn ~id Wire.Bad_payload
          (Printf.sprintf "unexpected %s frame from a client"
             (Wire.msg_type_name msg));
        true)

let reader t conn () =
  let rec loop () =
    match Frame_io.read_frame conn.c_fd with
    | Ok { Wire.id; msg } -> if handle t conn ~id msg then loop ()
    | Error `Eof -> ()
    | Error (`Wire w) ->
      (* hostile or corrupt bytes: answer with a structured error frame
         and drop the connection — a byte stream cannot be resynced *)
      Obs.Metrics.incr m_bad_frames;
      reply_error conn ~id:0
        (Wire.error_code_of_wire_error w)
        (Wire.wire_error_message w)
    | Error (`Unix _) -> ()
  in
  (try loop () with _ -> ());
  close_conn t conn

(* ----- the coalescing flusher (one thread per design) ----- *)

let flush ds lanes =
  let n_lanes = List.length lanes in
  Obs.Metrics.incr m_flushes;
  Obs.Metrics.observe h_batch_fill (float_of_int n_lanes);
  Obs.Trace.with_span
    ~args:
      [ ("design", Cjson.Str ds.ds_name); ("lanes", Cjson.Int n_lanes) ]
    "gklockd.flush"
    (fun () ->
      let now = Unix.gettimeofday () in
      (* charge each lane against its client's own budget; a quota that
         expired while the query sat in the queue drops the lane here,
         before any engine work, without disturbing its word-mates *)
      let survivors =
        List.filter
          (fun p ->
            Obs.Metrics.observe h_queue_wait (now -. p.p_t);
            match Budget.note_queries p.p_conn.c_budget 1 with
            | () -> true
            | exception Budget.Exhausted r ->
              Obs.Metrics.incr m_over_quota;
              reply_error p.p_conn ~id:p.p_id (quota_code r)
                (Printf.sprintf
                   "query dropped at flush: client %s quota exhausted"
                   (Budget.reason_name r));
              false)
          lanes
      in
      if survivors <> [] then begin
        Obs.Metrics.add m_queries (List.length survivors);
        List.iter
          (fun p -> Obs.Metrics.incr p.p_conn.c_counter)
          survivors;
        match
          oracle_batch ds (Array.of_list (List.map (fun p -> p.p_q) survivors))
        with
        | rs ->
          List.iteri
            (fun i p ->
              reply p.p_conn ~id:p.p_id
                (Wire.Result { n_bits = ds.ds_n_out; bits = rs.(i) }))
            survivors
        | exception Invalid_argument m ->
          List.iter
            (fun p -> reply_error p.p_conn ~id:p.p_id Wire.Bad_query m)
            survivors
        | exception e ->
          let m = Printexc.to_string e in
          List.iter
            (fun p -> reply_error p.p_conn ~id:p.p_id Wire.Server_error m)
            survivors
      end)

(* A lane is finished once its reply or error frame is written: only
   then can a request/reply client send its next query. *)
let lane_done t p =
  if Atomic.fetch_and_add p.p_conn.c_pending (-1) = 1 then
    Atomic.decr t.waiting

let flusher t ds () =
  let rec loop () =
    Mutex.lock ds.ds_mu;
    while Queue.is_empty ds.ds_q && not t.stopping do
      Condition.wait ds.ds_nonempty ds.ds_mu
    done;
    if Queue.is_empty ds.ds_q then (* stopping, nothing left *)
      Mutex.unlock ds.ds_mu
    else begin
      (* flush policy: a full word flushes immediately, and so does a
         queue no open connection can add a lane to — every open
         connection has a query queued or awaiting its reply, and a
         request/reply client sends nothing more until it is answered.
         Otherwise wait out the remainder of flush_delay_s from the
         oldest arrival.  [Condition] has no timed wait, so the delay
         is slept in small slices with the queue re-checked between
         them. *)
      let oldest = (Queue.peek ds.ds_q).p_t in
      let rec settle () =
        if
          Queue.length ds.ds_q < Netlist.Engine.word_bits
          && Atomic.get t.waiting < Atomic.get t.live
          && (not t.stopping)
          && Unix.gettimeofday () -. oldest < t.cfg.flush_delay_s
        then begin
          Mutex.unlock ds.ds_mu;
          Thread.delay (min 0.0005 t.cfg.flush_delay_s);
          Mutex.lock ds.ds_mu;
          settle ()
        end
      in
      settle ();
      let lanes = ref [] in
      let k = ref 0 in
      while !k < Netlist.Engine.word_bits && not (Queue.is_empty ds.ds_q) do
        lanes := Queue.pop ds.ds_q :: !lanes;
        incr k
      done;
      let depth = Queue.length ds.ds_q in
      Mutex.unlock ds.ds_mu;
      Obs.Metrics.set g_queue_depth (float_of_int depth);
      let lanes = List.rev !lanes in
      (* the flusher must outlive any single bad word: [flush] handles
         engine and reply errors itself, so anything escaping is a bug —
         answer the word's lanes with a structured error rather than
         dying and hanging every future scalar query on this design *)
      (try flush ds lanes
       with e ->
         let m = Printexc.to_string e in
         List.iter
           (fun p -> reply_error p.p_conn ~id:p.p_id Wire.Server_error m)
           lanes);
      List.iter (lane_done t) lanes;
      loop ()
    end
  in
  loop ()

(* ----- accept loop / metrics dumper ----- *)

let acceptor t () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      if t.stopping then begin
        (try Unix.close fd with Unix.Unix_error _ -> ());
        close_listener t
      end
      else begin
        Obs.Metrics.incr m_connections;
        Mutex.lock t.mu;
        let num = t.next_conn in
        t.next_conn <- num + 1;
        let name = Printf.sprintf "client-%d" num in
        let conn =
          {
            c_fd = fd;
            c_name = name;
            c_budget =
              Budget.create ?max_queries:t.cfg.max_queries_per_client
                ?deadline_s:t.cfg.client_deadline_s ();
            c_wmu = Mutex.create ();
            c_closed = false;
            (* shared until a [Hello] names the client: a fresh counter
               per connection would grow the registry without bound *)
            c_counter = m_other_queries;
            c_pending = Atomic.make 0;
          }
        in
        t.conns <- conn :: t.conns;
        Atomic.incr t.live;
        t.readers <- Thread.create (reader t conn) () :: t.readers;
        Mutex.unlock t.mu;
        loop ()
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ ->
      (* listener shut down by [initiate_stop] (or died): stop accepting *)
      close_listener t;
      if not t.stopping then initiate_stop t
  in
  loop ()

let write_metrics t =
  match t.cfg.metrics_out with
  | None -> ()
  | Some path -> ( try Obs.Metrics.write_file path with Sys_error _ -> ())

let dumper t () =
  let rec loop () =
    if not t.stopping then begin
      (* sliced sleep so shutdown is not delayed by a long interval *)
      let slept = ref 0.0 in
      while (not t.stopping) && !slept < t.cfg.metrics_interval_s do
        Thread.delay 0.05;
        slept := !slept +. 0.05
      done;
      write_metrics t;
      loop ()
    end
  in
  loop ()

let start t =
  Mutex.lock t.mu;
  if t.acceptor = None && not t.stopping then begin
    t.acceptor <- Some (Thread.create (acceptor t) ());
    t.flushers <- List.map (fun ds -> Thread.create (flusher t ds) ()) t.designs;
    if t.cfg.metrics_out <> None then
      t.dumper <- Some (Thread.create (dumper t) ())
  end;
  Mutex.unlock t.mu

let wait t =
  Mutex.lock t.mu;
  while not t.stopping do
    Condition.wait t.stop_cond t.mu
  done;
  if t.stopped then Mutex.unlock t.mu
  else begin
    Mutex.unlock t.mu;
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    close_listener t;
    List.iter Thread.join t.flushers;
    (* wake readers blocked in [read]: shutdown their sockets under
       [t.mu] (fd still open — the conn is still in [t.conns]) *)
    Mutex.lock t.mu;
    List.iter
      (fun c ->
        try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      t.conns;
    let readers = t.readers in
    Mutex.unlock t.mu;
    List.iter Thread.join readers;
    (match t.dumper with Some th -> Thread.join th | None -> ());
    (match t.bound with
    | Frame_io.Unix_path p -> (
      try if Sys.file_exists p then Sys.remove p with Sys_error _ -> ())
    | Frame_io.Tcp _ -> ());
    write_metrics t;
    Mutex.lock t.mu;
    t.stopped <- true;
    Mutex.unlock t.mu
  end

let stop t =
  initiate_stop t;
  wait t

let run ~config ~listen designs =
  let t = create ~config ~listen designs in
  start t;
  wait t
