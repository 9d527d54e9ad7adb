(** Sustained-load generator for the oracle service.

    Spawns the {e real} [gklockd] binary on a private socket, hammers it
    with [clients] concurrent closed-loop clients for [duration_s], and
    reports sustained queries/sec plus client-observed latency
    percentiles.  One {!row} is measured per (transport × mode):

    - transport [`Unix] / [`Tcp] — the daemon listens on a sandboxed
      unix socket or an ephemeral TCP port (bound as port 0 and read
      back from the daemon's "listening on" log line, so runs never
      race over a guessed port);
    - mode [`Scalar] — one [Query] frame per call, exercising the
      server's cross-client 63-lane coalescing;
    - mode [`Batch] — 63-query [Query_batch] frames, the bulk path.

    The server-side memo is disabled so every query reaches the engine;
    client memos are off too.  Latencies are recorded per query (per
    frame in [`Batch] mode) both exactly — for the percentile fields —
    and into [Obs.Metrics] histograms
    ([systest.load.latency_us.<transport>.<mode>]), whose snapshots are
    embedded in the JSON ({!to_json}) that [systest load] writes to
    [BENCH_load.json]. *)

type transport = [ `Unix | `Tcp ]
type mode = [ `Scalar | `Batch ]

val transport_name : transport -> string
val mode_name : mode -> string

type cfg = {
  l_design : string;  (** builtin benchmark name served by the daemon *)
  l_clients : int;
  l_duration_s : float;  (** measured window per row *)
  l_flush_delay_s : float;  (** daemon max coalescing delay *)
}

val default_cfg : cfg

type row = {
  r_transport : transport;
  r_mode : mode;
  r_clients : int;
  r_duration_s : float;  (** actual measured wall time *)
  r_queries : int;  (** oracle queries answered (lanes, not frames) *)
  r_qps : float;  (** sustained queries/sec over the window *)
  r_p50_us : float;  (** per-call latency percentiles (per frame in
                         [`Batch] mode), microseconds *)
  r_p90_us : float;
  r_p99_us : float;
  r_max_us : float;
  r_errors : int;  (** failed calls (transport or server errors) *)
}

(** [bound_addr daemon] waits for a spawned [gklockd]'s
    ["listening on"] stdout line and parses the advertised address —
    the actual bound port when the daemon was started on [tcp:...:0].
    Shared by the load generator and the daemon scenarios.
    @raise Systest_proc.Timeout if the line never appears.
    @raise Systest.Failed on an unparsable line. *)
val bound_addr : ?timeout_s:float -> Systest_proc.t -> Frame_io.addr

(** [run ~gklockd ~dir cfg transport mode] measures one row.  [dir] is
    a scratch directory for the socket and the daemon's captured logs.
    The daemon is shut down (and its clean exit asserted) before the
    row is returned.
    @raise Systest.Failed on daemon startup/shutdown problems. *)
val run :
  gklockd:string -> dir:string -> cfg -> transport -> mode -> row

(** [to_json ~smoke cfg rows] is the [BENCH_load.json] document
    (schema ["gklock/bench_load/v1"]), including the [Obs.Metrics]
    latency-histogram snapshot for each row. *)
val to_json : smoke:bool -> cfg -> row list -> Cjson.t
