(** The attack registry — one table from names to instrumented runners.

    Every oracle-guided attack in the library is registered here under a
    stable name, with a uniform calling convention: a combinational
    locked netlist, its key-input names, a counted {!Oracle.t} for the
    functioning chip, a shared {!Budget.t} and one replayable seed.
    {!run} dispatches by name and returns a uniform {!outcome} — a
    structured {!verdict} plus telemetry (budget iterations consumed,
    chip queries charged, CDCL conflicts, wall time) — so the campaign
    runner, the CLI, the paper-table experiments and the differential
    fuzzer all drive attacks through this single table instead of
    per-attack [match]es.

    Attacks that extract a key verify it against the chip (batched
    random samples via {!Sat_attack.verify_key_o}) before claiming
    {!Key_recovered}; a refuted extraction is reported as {!Wrong_key}
    (or carried inside {!No_dip} — the paper's GK headline: the miter is
    UNSAT at the first iteration and the arbitrary extracted key is
    wrong on the timing-true chip). *)

type ctx = {
  locked : Netlist.t;  (** combinational locked netlist (keys as PIs) *)
  key_inputs : string list;
  oracle : Oracle.t;   (** the functioning chip, counted and memoized *)
  budget : Budget.t;
  seed : int;          (** replay seed for all randomized sampling *)
}

(** Why an attack stopped without a result or a budget trip — recorded
    so a [gave_up] row in a bench table or campaign report says which of
    the structurally different bail-outs happened. *)
type gave_up_reason =
  | No_key_found  (** the search space was exhausted (brute force) *)
  | Not_applicable
      (** the attack's structural precondition is absent — e.g. the scan
          or removal attack found no glitch key-gates to excise *)
  | Verification_failed
      (** a candidate reconstruction was found but refuted against the
          chip *)

type verdict =
  | Skipped  (** the ["none"] baseline entry *)
  | Key_recovered of Key.assignment
      (** extracted key verified consistent with the chip *)
  | Wrong_key of { key : Key.assignment; mismatches : int }
      (** the attack claimed a key the chip refutes *)
  | No_dip of { key : Key.assignment; mismatches : int }
      (** miter UNSAT at the first iteration; the attached key is the
          unconstrained extraction, with its chip mismatch count *)
  | Approx_key of { key : Key.assignment; error_rate : float }
  | Partial_key of { recovered : Key.assignment; unresolved : int }
  | Recovered_netlist of Netlist.t
      (** structural attacks that rebuild the design without a key *)
  | Gave_up of gave_up_reason
  | Out_of_budget of Budget.reason

type outcome = {
  verdict : verdict;
  iterations : int;  (** budget iterations consumed (attack-defined unit) *)
  queries : int;     (** chip queries charged during this run *)
  conflicts : int;   (** CDCL conflicts (0 for non-SAT attacks) *)
  elapsed_s : float;
      (** wall clock, clamped to a minimum of [1e-6] so an attack that
          bails before its first iteration still records a positive
          duration *)
}

val verdict_name : verdict -> string
val gave_up_reason_name : gave_up_reason -> string

(** [Some reason] for [Gave_up], [None] otherwise. *)
val gave_up_reason_of_verdict : verdict -> string option

(** Did the attacker win?  True for [Key_recovered], [Approx_key] and
    [Recovered_netlist]. *)
val broken : verdict -> bool

val key_of_verdict : verdict -> Key.assignment option

(** [Some 0] for a verified key, the refutation count for [Wrong_key] /
    [No_dip], [None] when no key was extracted. *)
val mismatches_of_verdict : verdict -> int option

type entry = {
  name : string;
  threat_model : string;
  budget_unit : string;  (** what one {!Budget.tick} counts *)
  runner : ctx -> verdict * int;  (** returns (verdict, conflicts) *)
}

val registry : entry list
val names : unit -> string list
val find : string -> entry option

(** @raise Invalid_argument listing the known names. *)
val find_exn : string -> entry

(** [run ?budget ?seed ~name ~locked ~key_inputs ~oracle ()] — the one
    entry point.  [budget] defaults to 4096 iterations (no query or
    deadline limit); [seed] defaults to {!Fuzz_seed.value}.
    {!Budget.Exhausted} raised anywhere inside the attack (including key
    verification) is caught and reported as [Out_of_budget]; [queries]
    counts only this run's charges even when [oracle] is shared. *)
val run :
  ?budget:Budget.t ->
  ?seed:int ->
  name:string ->
  locked:Netlist.t ->
  key_inputs:string list ->
  oracle:Oracle.t ->
  unit ->
  outcome

(** The registry rendered as a GitHub-flavoured markdown table (the
    README "Attacks" section is generated from this). *)
val markdown_table : unit -> string
