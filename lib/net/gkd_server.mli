(** [gklockd] — the oracle-as-a-service daemon.

    The server owns a fleet of locked-design oracles: each hosted design
    is combinationalized once, compiled to a {!Netlist.Engine} and
    wrapped in one shared {!Oracle.t}.  Clients speak the {!Wire}
    protocol over a Unix-domain or TCP socket; the accept loop hands
    each connection to a reader thread, and evaluation happens on
    per-design flusher threads.  The server never sees a pin name after
    [List_designs]: queries are packed input bits in the advertised
    [d_inputs] order, evaluated through {!Oracle.query_packed}, and a
    query whose bit count is not the design's input count gets a
    structured [bad_query] error while its connection stays open.
    Checking names, and the strict or partial rule, is the client's
    job ({!Remote_oracle}).

    - {b scalar coalescing}: [Query] frames from {e all} clients of a
      design land in one pending queue.  The flusher drains a word as
      soon as a full 63-lane engine word is pending, or as soon as every
      open connection has a [Query] queued or awaiting its reply, or
      else after {!config.flush_delay_s} from the oldest entry.  Clients
      such as {!Remote_oracle} are strictly request/reply: once each
      open connection is blocked on an answer, no lane-mate can arrive,
      so a lone client never waits for the delay while a busy server
      still packs up to 63 lanes into every engine pass.  Limits: a
      connection with no [Query] in flight (idle, or sending only
      [Query_batch] frames) keeps the delay in force for everyone while
      it is open, and a client that pipelines several [Query] frames
      may have them split across smaller words (its answers are the
      same).
    - {b per-client quotas}: every connection gets its own {!Budget.t}
      ({!config.max_queries_per_client} / {!config.client_deadline_s}).
      Lanes are charged at {e flush} time: a client whose quota expired
      while its queries sat in the queue receives structured
      [over_quota] error frames and its lanes never reach the engine;
      other clients' lanes in the same word are unaffected.
    - {b explicit batches}: [Query_batch] bypasses the queue, is charged
      up front, and runs through {!Oracle.query_packed} in one pass.

    Evaluation is serialized per design: explicit [Query_batch] frames
    (reader threads) and coalesced words (the flusher) take the same
    per-design oracle mutex, because the shared {!Oracle.t}'s engine
    scratch and memo are not safe under concurrent use.

    Instrumentation (all via {!Obs}): [gklockd.connections] /
    [gklockd.queries] / [gklockd.bad_frames] / [gklockd.over_quota]
    counters, a per-client [gklockd.client_queries.<name>] counter
    (capped at 256 distinct names; further names — and clients that
    never send a [Hello] — share [gklockd.client_queries.other]), the
    [gklockd.queue_depth] gauge, the [gklockd.batch_fill] histogram
    (observed {e once per flush} with the number of coalesced lanes) and
    [gklockd.flush] / [gklockd.request] trace spans.  With
    {!config.metrics_out} set, the whole metrics registry — including
    the oracle's [oracle.memo_evictions] and batch-fill counters — is
    dumped periodically and once more on shutdown.

    Shutdown: a [Shutdown] frame (honored on Unix-socket listeners
    always, on TCP only with {!config.allow_tcp_shutdown}) or {!stop}
    closes the listener,
    drains and joins every thread, closes every connection, unlinks the
    Unix socket file and writes the final metrics dump.  {!wait} returns
    only after all of that, so "no orphaned threads, no socket file" is
    testable. *)

type config = {
  flush_delay_s : float;
      (** max time a pending scalar query waits for lane-mates while
          some open connection could still send one (default 2 ms) *)
  max_queries_per_client : int option;  (** per-connection query quota *)
  client_deadline_s : float option;
      (** per-connection wall-clock quota, from accept time *)
  oracle_memo : bool;  (** memoize server-side (default true) *)
  oracle_memo_cap : int option;
      (** bound resident memo entries per design (default 65536).  An
          entry is the packed input and output bits plus its table
          cells, about 0.5 KB on s38417 (1,592 inputs, 1,672 outputs),
          so the default cap holds about 32 MB there *)
  allow_tcp_shutdown : bool;
      (** honor [Shutdown] frames on a TCP listener (default false:
          anyone who can reach the port could otherwise kill the
          daemon; a denied request gets a structured [not_permitted]
          error).  Unix-socket listeners always honor [Shutdown] — the
          socket path is in the process's own trust domain. *)
  metrics_out : string option;  (** periodic metrics dump target *)
  metrics_interval_s : float;  (** dump period (default 5 s) *)
  server_name : string;  (** advertised in [Hello_ack] *)
}

val default_config : config

type t

(** [create ~config ~listen designs] binds the socket and compiles an
    oracle per design ([(name, netlist)]; sequential netlists are
    combinationalized).  No thread runs yet.
    @raise Invalid_argument on duplicate or empty design names, or a
    non-positive [flush_delay_s].
    @raise Unix.Unix_error if the address cannot be bound. *)
val create :
  config:config -> listen:Frame_io.addr -> (string * Netlist.t) list -> t

(** The bound address ([Tcp] with the real port when port 0 was asked). *)
val address : t -> Frame_io.addr

(** Start the accept loop, per-design flushers and the metrics dumper.
    Returns immediately. *)
val start : t -> unit

(** Block until the server has fully shut down (via a client [Shutdown]
    frame or {!stop}): all threads joined, connections closed, socket
    file removed, final metrics written.  Idempotent. *)
val wait : t -> unit

(** Initiate shutdown from this process (equivalent to a [Shutdown]
    frame) and {!wait}. *)
val stop : t -> unit

(** [run ~config ~listen designs] is [create] + [start] + [wait] — the
    daemon main loop. *)
val run :
  config:config -> listen:Frame_io.addr -> (string * Netlist.t) list -> unit

(** Currently open client connections (0 after {!wait}) — used by tests
    to prove the malformed-frame fuzz leaks nothing. *)
val live_connections : t -> int

(** The shared server-side oracle of a hosted design, for tests that
    assert on real evaluation counts. *)
val design_oracle : t -> string -> Oracle.t option
