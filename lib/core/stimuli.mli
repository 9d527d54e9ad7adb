(** Shared input stimuli for the experiments, examples and tests.

    Timing-true sequential simulation needs inputs that behave like real
    system inputs: they change right after the active clock edge (as if
    launched by upstream flip-flops).  An input toggling in the middle of
    a cycle would trip capture windows even in an unlocked design. *)

(** [edge_aligned ?seed net ~clock_ps ~cycles] drives every primary input
    with a deterministic pseudo-random waveform whose transitions occur at
    [k·clock + clk2q] — the launch instant of a flip-flop.  Different
    seeds give different patterns. *)
val edge_aligned :
  ?seed:int -> Netlist.t -> clock_ps:int -> cycles:int -> int -> Timing_sim.drive

(** [cycle_inputs ?seed net] is a stimulus for {!Cycle_sim.run}: a
    deterministic pseudo-random bit per (cycle, input). *)
val cycle_inputs : ?seed:int -> Netlist.t -> int -> int -> bool

(** [po_agreement ~skip a b] compares two {!Timing_sim} results'
    primary-output samples (matched by name), ignoring the first [skip]
    cycles (locked designs need one warm-up cycle for their KEYGEN
    toggles).  Returns (mismatches, comparisons). *)
val po_agreement :
  skip:int -> Timing_sim.result -> Timing_sim.result -> int * int

(** [state_mismatches ~skip base_net base net r] counts the samples of
    [r], a run of [net], that differ from [base], a run of [base_net],
    ignoring the first [skip] cycles: the primary outputs of
    {!po_agreement}, plus the flip-flops matched by name (a flip-flop of
    one design only, such as a KEYGEN toggle, is not compared). *)
val state_mismatches :
  skip:int -> Netlist.t -> Timing_sim.result -> Netlist.t -> Timing_sim.result -> int
