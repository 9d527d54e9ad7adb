(** Client side of the oracle service: an {!Oracle.t} whose chip lives
    behind a [gklockd] socket.

    {!connect} performs the [Hello] version handshake, picks a design
    (explicitly, or the sole hosted one) and returns a handle whose
    {!oracle} is a positional {!Oracle.of_packed} built from the
    design's advertised [d_inputs] and [d_outputs] — so every attack in
    {!Attack.registry} runs against the daemon unmodified.  Named
    queries are resolved and validated here, at the client edge, exactly
    as {!Oracle.of_netlist} does it: an unknown or missing pin raises
    [Invalid_argument] before any frame is sent, unless the oracle was
    {!Oracle.relax}ed (whose defaulted reads count in this process's
    [oracle.partial_defaults]).  Only packed bits cross the wire.
    {!Oracle.query} maps to one [Query] frame; {!Oracle.query_batch} and
    {!Oracle.query_packed} ship their memo misses in [Query_batch]
    frames, keeping 63-lane words full across the wire, split into
    chunks whose size follows exactly from the packed widths and
    {!Wire.max_payload}.

    Budget semantics survive the network: a structured [over_quota]
    error frame from the server raises {!Budget.Exhausted} with the
    corresponding reason, which {!Attack.run} already converts to an
    [Out_of_budget] verdict.  Every other error frame raises
    {!Remote_error}.

    The client-side memo (on by default) means a memo hit never crosses
    the wire; pass [~memo:false] to benchmark raw round trips.

    Handles are not thread-safe: one connection, one in-flight request. *)

(** A structured error frame from the server (or a broken transport,
    reported as {!Wire.Server_error} with a detail string). *)
exception Remote_error of Wire.error_code * string

type t

(** [connect ?client ?design ?memo ?memo_cap addr] dials [addr], runs
    the [Hello] handshake, and binds to [design].  When [design] is
    omitted the server must host exactly one design.
    @raise Remote_error on a version mismatch or unknown design.
    @raise Unix.Unix_error when nothing is listening at [addr]. *)
val connect :
  ?client:string -> ?design:string -> ?memo:bool -> ?memo_cap:int ->
  Frame_io.addr -> t

(** The oracle view of the connection.  Positional: [input_names] is the
    design's [d_inputs], replies list its [d_outputs] in order, and
    named queries are strict until {!Oracle.relax}ed, like a local
    {!Oracle.of_netlist}. *)
val oracle : t -> Oracle.t

(** The design this handle is bound to. *)
val design : t -> string

(** What the server advertised in [Hello_ack]. *)
val server_name : t -> string

(** Designs hosted by the server (fetched during {!connect}). *)
val designs : t -> Wire.design_info list

(** Round-trip a [Ping]; returns the elapsed seconds. *)
val ping : t -> float

(** Ask the server to shut down ([Shutdown] frame, awaits the ack). *)
val shutdown_server : t -> unit

(** Close the connection.  Idempotent; the handle is dead afterwards
    (further queries raise {!Remote_error}). *)
val close : t -> unit
