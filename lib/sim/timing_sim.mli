(** Event-driven transport-delay timing simulation.

    Every gate propagates input changes to its output after its bound
    cell's pin-to-pin delay, so narrow pulses — glitches — travel through
    the netlist exactly as the paper's Sec. II describes.  All flip-flops
    share one implicit clock with active edges at [k × clock_ps] for
    k = 0..cycles — the edge at t = 0 launches the initial state (it is
    what starts a KEYGEN's toggle inside cycle 0) and is not recorded, so
    recorded sample k belongs to the edge at [(k+1) × clock_ps].  At each
    recorded edge a flip-flop latches its D value provided
    D was stable over the closed window [edge − setup, edge + hold],
    otherwise a setup or hold violation is recorded and the latch captures
    [X].  The "transmit data on the level of the glitch" scenario of
    Fig. 7(a) is a glitch that covers that whole window.

    The locked netlists produced by {!Gklock_locking} contain their GK and
    KEYGEN structures as plain cells, so glitch generation is emergent: no
    GK-specific code exists in this simulator. *)

(** How a primary input is driven. *)
type drive =
  | Const of bool
  | Wave of Waveform.t

type config = {
  clock_ps : int;  (** clock period *)
  cycles : int;    (** number of active edges simulated *)
}

type violation_kind = Setup_violation | Hold_violation

type violation = {
  v_ff : int;            (** flip-flop node id *)
  v_ff_name : string;
  v_cycle : int;         (** 0-based index of the offending edge *)
  v_kind : violation_kind;
  v_time : int;          (** time of the offending D transition *)
}

(** Every transition of a run, oldest first, in one growable log: per
    entry its time, its value and the index of the same node's previous
    entry, with each node's newest entry at hand.  A latch walks back from
    its D pin's newest entry through the setup/hold window to the sampled
    value, so a capture costs O(window), not O(history).  Read a node's
    history with {!wave}. *)
type log

type result = {
  ff_ids : int array;
  ff_samples : Logic.t array array;  (** ff_samples.(i).(k): FF [ff_ids.(i)] at edge k+1 *)
  violations : violation list;
  po_samples : (string * Logic.t array) list;
      (** primary outputs sampled at each active edge *)
  log : log;  (** every transition of the run *)
}

(** [run ?init ?drive ?captures_from net config] simulates.  [init ff_id]
    seeds flip-flop states (default all-0); [drive pi_id] describes each
    primary input (default [Const false]).  [captures_from ff_id] is the
    first edge index (edge k sits at [k × clock_ps]) at which that
    flip-flop captures; before it the flip-flop holds its state —
    synchronous-reset semantics.  Locked designs use this to hold data
    flip-flops through cycle 0 while their free-running KEYGEN toggles
    start up, so the first real capture is already glitch-covered (see
    {!Gklock_locking.Insertion}); the default 0 captures from the launch
    edge.

    The run is an event loop over one {!Event_queue}: input transitions
    are pushed first, then one edge event per active edge (none without
    flip-flops), then each re-evaluation a transition schedules — one per
    fanin pin of each consumer, so a gate reading a driver on two pins is
    scheduled twice.  An edge event latches every flip-flop in [ff_ids]
    order; the events its latches schedule pop after it, like any event
    pushed later.  The [sim.run] span ends with the run's
    [events_popped] (each latch counts as one event), [transitions] and
    [violations], plus [glitch_pulses] when tracing (the FF D-pin pulses
    of Eq. 2, each also a [sim.glitch] instant).
    @raise Invalid_argument on a non-positive clock or cycle count, or on
    a cell with a negative delay. *)
val run :
  ?init:(int -> bool) ->
  ?drive:(int -> drive) ->
  ?captures_from:(int -> int) ->
  Netlist.t ->
  config ->
  result

(** [wave result id] is node [id]'s waveform, built from the log when
    called: its value at t = 0 and every transition, normalized as
    {!Waveform.make} does (a same-time excursion collapses).  Nothing
    builds waveforms a caller does not ask for. *)
val wave : result -> int -> Waveform.t

(** [wave_of result net name] is {!wave} looked up by node name.
    @raise Not_found for unknown names. *)
val wave_of : result -> Netlist.t -> string -> Waveform.t
