(** Time-ordered event queue for the timing simulator.

    A binary min-heap on (time, insertion sequence), stored as three
    parallel int arrays (time, sequence number, payload): events at the
    same timestamp pop in insertion order, which keeps the
    transport-delay simulation deterministic.  Payloads are ints — the
    simulator packs its events into them — so neither [add] nor [pop]
    allocates once the arrays have grown to the queue's high-water mark. *)

type t

val create : unit -> t

val is_empty : t -> bool

val size : t -> int

(** [add q ~time payload] schedules [payload].
    @raise Invalid_argument on a negative time. *)
val add : t -> time:int -> int -> unit

(** [min_time q] is the earliest timestamp, without removing anything.
    @raise Invalid_argument on an empty queue. *)
val min_time : t -> int

(** [pop q] removes the earliest event and returns its payload; read its
    time with {!min_time} first.  Each pop bumps the [event_queue.pops]
    probe.  @raise Invalid_argument on an empty queue. *)
val pop : t -> int
