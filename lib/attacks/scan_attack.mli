(** The scan-based attack of Sec. VI's BIST discussion.

    "Our GK may has a weakness when there are built-in self-test (BIST)
    structures such as scan-chain in the circuit [...] the GK that works
    solely to encrypt the input of FF at the end of the path can provide
    only limited security."

    With scan access the attacker can load an arbitrary flip-flop state,
    apply primary inputs, pulse the clock and shift the captured state
    out — a direct oracle for the chip's {i next-state function}.  Since
    the working chip operates with the correct (transitional) key, every
    GK behaves as its glitch-time function there.  The attacker then needs
    no SAT solver at all: for each located GK, evaluate its data cone [x]
    on the stolen netlist, compare the chip's captured bit against [x] and
    [x'], and read off buffer-vs-inverter directly.

    The hybrid counter-measure (Sec. VI): put conventional XOR key-gates
    {i inside the GK-encrypted cones}.  The attacker can no longer
    evaluate [x] without knowing those key bits, the hypothesis test loses
    its reference value, and the verdict degrades to [`Unknown] — while
    the SAT attack that would recover the XOR bits stays starved by the
    GKs. *)

type behaviour = [ `Buffer | `Inverter | `Unknown ]

type verdict = {
  v_mux : int;          (** the GK's output node in the stripped netlist *)
  v_ppo : string;       (** the pseudo-PO (FF D pin) the GK drives *)
  v_behaviour : behaviour;
  v_agree_buffer : int; (** samples agreeing with the buffer hypothesis *)
  v_agree_inverter : int;
  v_samples : int;
}

(** [exec ?samples ?seed ?unknown ~budget ~stripped_comb ~oracle ()]
    locates the GKs in [stripped_comb] (the combinationalized,
    KEYGEN-stripped locked netlist) and tests each against the scan
    capture oracle, one budget iteration per located GK.  Inputs listed
    in [unknown] are key pins the attacker cannot drive on the chip (a
    hybrid design's XOR keys); the attack has to guess them (constant
    false), which is what blinds it.  All other inputs — primary inputs
    and scan-loadable pseudo inputs — are sampled randomly.  [oracle]
    answers for the functioning chip (its pseudo-outputs are the real
    captures); its captures are drawn in counted, memoized batches, and
    the stripped-netlist side is evaluated on the bit-parallel engine,
    63 samples per pass.  [seed] defaults to the session {!Fuzz_seed}.
    @raise Invalid_argument on a sequential [stripped_comb]. *)
val exec :
  ?samples:int ->
  ?seed:int ->
  ?unknown:string list ->
  budget:Budget.t ->
  stripped_comb:Netlist.t ->
  oracle:Oracle.t ->
  unit ->
  verdict list

(** [decrypt ~stripped_comb verdicts] replaces each decided GK by the
    revealed buffer/inverter and sweeps; [None] when any verdict is
    [`Unknown]. *)
val decrypt : stripped_comb:Netlist.t -> verdict list -> Netlist.t option
