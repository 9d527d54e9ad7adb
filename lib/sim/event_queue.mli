(** Time-ordered event queue for the timing simulator.

    Events pop in (time, insertion order): events at the same timestamp
    pop in the order they were added, which keeps the transport-delay
    simulation deterministic.  Payloads are ints — the simulator packs
    its events into them — so neither [add] nor [pop] allocates once the
    arrays have grown to the queue's high-water mark.

    The queue is a timing wheel in front of a binary heap.  A ring of
    4,096 buckets holds the events of the next 4,096 ps after the last
    popped time, one bucket per exact time, each in insertion order; a
    scheduled gate delay (at most 1,600 ps in the cell library) lands
    there in O(1).  Later events wait in an overflow min-heap on (time,
    insertion sequence), stored as parallel int arrays; whenever the
    popped time advances, the ones that now fit move into the ring in
    heap order, so they still pop ahead of any same-time event added
    after them.  Time never runs backwards: [add] rejects a time before
    the last pop. *)

type t

val create : unit -> t

val is_empty : t -> bool

(** [size q] counts the events in the ring and in the heap. *)
val size : t -> int

(** [add q ~time payload] schedules [payload].
    @raise Invalid_argument on a time before the last popped time (or
    below 0 before the first pop). *)
val add : t -> time:int -> int -> unit

(** [min_time q] is the earliest timestamp, without removing anything.
    It remembers where its scan of the ring stopped, so the [pop] that
    follows does not scan again.
    @raise Invalid_argument on an empty queue. *)
val min_time : t -> int

(** [pop q] removes the earliest event and returns its payload; read its
    time with {!min_time} first.  Each pop bumps the [event_queue.pops]
    probe, so it counts queue pops: {!Timing_sim.run} pops one event per
    active clock edge for all its flip-flops together.
    @raise Invalid_argument on an empty queue. *)
val pop : t -> int
