(** The enhanced removal attack of Sec. V-D: locate → remodel → SAT.

    1. {!locate} pattern-matches the GK structure in the stripped locked
       netlist: a MUX whose select also reaches both data inputs — one an
       XNOR, one an XOR — through pure delay (buffer) chains, both gates
       sharing a second common fanin [x].
    2. {!remodel} replaces each located GK by a conventional XOR key-gate
       with a fresh key input (the "MUX having multiple encryption
       behavior" modelling of the paper, specialised to the two stable
       behaviours a GK exhibits).
    3. {!exec} runs the SAT attack on the remodelled netlist.

    Against bare GKs this works — which is exactly the paper's claim
    ("this attacking method is effective to decrypt circuits when the
    security structures are located") and its motivation for the
    withholding countermeasure: once the GK is absorbed into a LUT
    ({!Withhold}), {!locate} finds nothing, and remodelling must consider
    [2^(2^k)] candidate functions per LUT ({!withheld_search_space}). *)

type located_gk = {
  mux : int;
  key_net : int;     (** the select / delayed-branch source *)
  x : int;           (** the shared data fanin *)
  branch_nodes : int list;  (** XNOR/XOR gates and delay chains *)
}

(** Find GK structures in a combinational or sequential netlist. *)
val locate : Netlist.t -> located_gk list

type remodelled = {
  net : Netlist.t;
  new_key_inputs : string list;  (** one per located GK, [erk<i>] *)
}

(** Replace each located GK with [XOR(x, erk<i>)]; the old structure is
    swept, and so is each GK's key input once nothing else reads it, so
    the remodelled netlist's non-key inputs are the chip's pins. *)
val remodel : Netlist.t -> located_gk list -> remodelled

(** [exec ~budget locked ~oracle ()] locates, remodels and SAT-attacks
    in one call: the remodelled DIP loop runs under [budget] against
    [oracle], which speaks for the functionally correct chip. *)
val exec :
  budget:Budget.t ->
  Netlist.t ->
  oracle:Oracle.t ->
  unit ->
  remodelled * Sat_attack.outcome

(** Search-space size (log2) an attacker faces when [n] GKs are hidden in
    withheld [k]-input LUTs: [n × 2^k] unknown truth-table bits. *)
val withheld_search_space_log2 : n_gks:int -> lut_inputs:int -> float
