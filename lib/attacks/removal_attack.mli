(** Removal attacks (Sec. V-C and the TDK critique of Sec. I).

    Three attack pieces:

    - {!exec}: the skew-guided removal of [15,16] against SARLock/Anti-SAT
      class defenses.  Locate the most probability-skewed signal, replace
      it with its dominant constant, re-synthesize, and check the restored
      netlist against the oracle.
    - {!strip_tdbs}: the paper's TDK critique — delete the tunable delay
      buffers, re-synthesize "to fix the timing violations", leaving plain
      XOR locking for the SAT attack.
    - {!guess_gk}: removal against GKs.  A located GK still acts as either
      a buffer or an inverter (its real, glitch-time behaviour), so the
      attacker must guess one of 2^n replacement vectors and check each
      against the chip — the exponential cost the paper claims. *)

type removal_outcome = {
  removed : int list;          (** node ids excised *)
  restored : Netlist.t option; (** cleaned netlist when the check passed *)
  candidates_tried : int;
  success : bool;
}

(** [exec ~budget locked ~oracle] attacks a locked {i combinational}
    netlist: key inputs are left free (the structure is bypassed, not
    decoded).  Equivalence with the chip is checked on [samples] random
    vectors per candidate, batched through the 63-lane engine path; one
    {!Budget.tick} is charged per candidate.  [seed] defaults to
    {!Fuzz_seed.value}. *)
val exec :
  ?samples:int ->
  ?eps:float ->
  ?max_candidates:int ->
  ?seed:int ->
  budget:Budget.t ->
  Netlist.t ->
  oracle:Oracle.t ->
  removal_outcome

(** [strip_tdbs tdk] removes every TDB MUX and delay chain from a
    TDK-locked design, reconnecting the functional key-gate directly, and
    re-synthesizes.  The result is XOR-locked only; attack it with
    {!Sat_attack}. *)
val strip_tdbs : Tdk.t -> Locked.t

type gk_guess_outcome = {
  guesses_tried : int;
  total_guesses : int;      (** 2^n for n located GKs *)
  recovered : Netlist.t option;
}

(** [guess_gk ~budget stripped ~gks ~oracle] enumerates
    buffer/inverter replacements for each located GK output (given by
    node id and its [x] fanin) and tests each candidate against the chip
    on random samples (batched); one {!Budget.tick} per guess.
    Deterministic enumeration order — expected cost half the space.
    [seed] defaults to {!Fuzz_seed.value}. *)
val guess_gk :
  ?samples:int ->
  ?seed:int ->
  budget:Budget.t ->
  Netlist.t ->
  gks:(int * int) list ->
  oracle:Oracle.t ->
  gk_guess_outcome
