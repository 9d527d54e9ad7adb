(** The differential oracle stack.

    The repo carries several independent implementations of "what does
    this netlist compute": the naive reference walk ({!Ref_sim}), the
    compiled engine one pattern at a time ({!Netlist.eval_comb} via
    {!Cycle_sim}) and one lane per bit ({!Cycle_sim.run_batch}), the
    event-driven timing simulator ({!Timing_sim}), SAT equivalence over a
    miter ({!Equiv}) and BDDs ({!Bdd}).  Each oracle here cross-checks
    two of them on one {!Fuzz_case.t} and reports any disagreement as a
    structured {!mismatch} — first divergent cycle, signal, lane — the
    raw material the shrinker minimizes and the corpus replays.

    All oracles are expected to agree on every valid netlist; a mismatch
    is always a bug in one of the engines (or in a transform such as the
    bench printer that oracle 4 routes the circuit through). *)

type oracle =
  | Engine_scalar  (** [eval_comb] (via {!Cycle_sim}) vs reference walk *)
  | Engine_lanes   (** bit-parallel lanes vs [eval_comb], per lane *)
  | Engine_block
      (** multi-word [eval_block] vs a one-word block per word, plus
          sampled lanes vs [eval_comb] and reference walk — covers
          partial final words *)
  | Timing         (** timing simulator's captures vs cycle accurate sim *)
  | Sat_roundtrip  (** SAT miter: netlist ≡ its bench round-trip, unrolled *)
  | Bdd_probe      (** BDD build vs reference walk on sampled vectors *)
  | Opt_equiv
      (** the {!Opt} strash/rewrite twin keeps the pin interface and the
          function: interface checked syntactically, function by a SAT
          miter over the unrolling plus name-matched concrete vectors *)

val all_oracles : oracle list
val oracle_name : oracle -> string
val oracle_of_name : string -> oracle option

type mismatch = {
  mm_oracle : string;
  mm_cycle : int;   (** first divergent cycle; [-1] when combinational *)
  mm_signal : string;  (** PO name or flip-flop name that diverged *)
  mm_lane : int;    (** diverging stimulus lane; [-1] when not lane-level *)
  mm_detail : string;
}

val pp_mismatch : Format.formatter -> mismatch -> unit
val mismatch_to_string : mismatch -> string

(** [mismatch ~oracle signal] builds a mismatch record — for property
    layers ({!Lock_props}) that report through the same channel. *)
val mismatch :
  oracle:string -> ?cycle:int -> ?lane:int -> ?detail:string -> string ->
  mismatch

(** [check ?oracles ?fault ~seed case] runs the oracle stack and returns
    every disagreement (empty = all engines agree).  [seed] fixes the
    auxiliary randomness (extra stimulus lanes, BDD probe vectors).
    [fault] injects a deliberate bug into the reference walk —
    mutation-testing hook; see {!Ref_sim.fault}.  Oracles that do not
    apply to a case (e.g. timing on a zero-cycle case) are skipped. *)
val check :
  ?oracles:oracle list ->
  ?fault:Ref_sim.fault ->
  seed:int ->
  Fuzz_case.t ->
  mismatch list
