(** The SAT attack of Subramanyan et al. [11].

    Threat model: the attacker holds (1) the locked combinational netlist
    (sequential designs are first cut at FF boundaries, see
    {!Combinationalize}) and (2) an unlocked, functionally correct chip
    usable as an input→output oracle.  The attack builds a miter of two
    copies of the locked netlist sharing primary inputs but with
    independent key vectors, constrained to disagree on some output.  Each
    SAT solution yields a {i distinguishing input pattern} (DIP); querying
    the oracle on the DIP and asserting the correct I/O relation on both
    copies prunes wrong keys.  When the miter goes UNSAT, every remaining
    key is functionally correct and one is extracted.

    On a GK-locked netlist the gate's output is the same function of [x]
    for {i both} key values, so no DIP exists: the very first solve
    returns UNSAT (the paper's Sec. VI result), the attack learns nothing,
    and the "recovered" key is an unconstrained guess that the timing-true
    chip refutes. *)

(** The oracle: primary-input assignment (by name) → primary-output values. *)
type oracle = (string * bool) list -> (string * bool) list

type status =
  | Key_recovered of Key.assignment
  | Unsat_at_first_iteration of Key.assignment
      (** no DIP ever existed; the attached key is the arbitrary model the
          final extraction produces — reported so its wrongness can be
          demonstrated *)
  | Budget_exhausted

type outcome = {
  status : status;
  iterations : int;              (** DIPs consumed *)
  dips : (string * bool) list list;  (** in discovery order *)
  conflicts : int;
      (** CDCL conflicts of the attack's DIP searches (the final key
          read is not counted) *)
}

(** [oracle_of_netlist net] wraps a combinational netlist as the oracle
    (simulating the unlocked chip), via a memoizing {!Oracle.t}.  A
    query naming an unknown input, or leaving an input unassigned,
    raises [Invalid_argument]; [~partial:true] restores the old
    permissive read-as-false semantics for attacks that cannot name
    every pin. *)
val oracle_of_netlist : ?partial:bool -> Netlist.t -> oracle

(** [exec ~budget ~locked ~key_inputs ~oracle ()] is the framework entry
    point: the DIP loop charges one {!Budget.tick} per iteration and
    every oracle query against [budget]; exhaustion (from this function
    or the oracle) returns [Budget_exhausted] instead of raising.
    [locked] must be combinational; [key_inputs] are the names of its
    key PIs; all other PIs are the X inputs presented to the oracle. *)
val exec :
  budget:Budget.t ->
  locked:Netlist.t ->
  key_inputs:string list ->
  oracle:Oracle.t ->
  unit ->
  outcome

(** [run ?max_iterations ~locked ~key_inputs ~oracle ()] — legacy entry:
    {!exec} under a DIP-count-only budget (default 4096). *)
val run :
  ?max_iterations:int ->
  locked:Netlist.t ->
  key_inputs:string list ->
  oracle:oracle ->
  unit ->
  outcome

(** [verify_key_o ?samples ?seed ~locked ~key_inputs ~oracle key]
    samples random input vectors and checks the locked netlist under
    [key] against the chip; returns the number of mismatching vectors
    (0 = consistent).  Both sides are evaluated through the batched
    63-lane oracle path.  [seed] defaults to {!Fuzz_seed.value}. *)
val verify_key_o :
  ?samples:int ->
  ?seed:int ->
  locked:Netlist.t ->
  key_inputs:string list ->
  oracle:Oracle.t ->
  Key.assignment ->
  int

(** Legacy {!verify_key_o} over a bare oracle closure. *)
val verify_key :
  ?samples:int ->
  ?seed:int ->
  locked:Netlist.t ->
  key_inputs:string list ->
  oracle:oracle ->
  Key.assignment ->
  int
