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

(** [exec ~budget ~locked ~key_inputs ~oracle ()] runs the DIP loop
    against the chip [oracle], charging one {!Budget.tick} per DIP.
    Exhausting [budget] returns [Budget_exhausted] instead of raising:
    its iteration cap or deadline here, or its query cap in an oracle
    bound to it ({!Oracle.with_budget}; {!Attack.run} binds its own).
    [locked] must be combinational; [key_inputs] are the names of its
    key PIs; all other PIs are the X inputs presented to the oracle.
    @raise Invalid_argument on a sequential [locked] or a key name that
    is not one of its inputs. *)
val exec :
  budget:Budget.t ->
  locked:Netlist.t ->
  key_inputs:string list ->
  oracle:Oracle.t ->
  unit ->
  outcome

(** [verify_key ?samples ?seed ~locked ~key_inputs ~oracle key]
    samples random input vectors and checks the locked netlist under
    [key] against the chip; returns the number of mismatching vectors
    (0 = consistent).  Both sides are evaluated through the batched
    63-lane oracle path.  [seed] defaults to {!Fuzz_seed.value}. *)
val verify_key :
  ?samples:int ->
  ?seed:int ->
  locked:Netlist.t ->
  key_inputs:string list ->
  oracle:Oracle.t ->
  Key.assignment ->
  int
