(** The FF-boundary cut used before SAT attack (Sec. VI of the paper).

    "Before SAT attack decrypts sequential circuits, it will first extract
    the combinational part [...] by treating the inputs and outputs of FFs
    as pseudo primary outputs and inputs, respectively."  This module
    performs that transform: every flip-flop's Q output becomes a pseudo
    primary input [ppi_<ff>] and its D pin drives a pseudo primary output
    [ppo_<ff>]. *)

type mapping = {
  ff_name : string;
  ppi : string;  (** pseudo-PI that replaced the FF's Q *)
  ppo : string;  (** pseudo-PO fed by the FF's old D *)
}

(** [run net] is the combinational netlist and the per-FF correspondence.
    The input is not modified.  The result has no flip-flops and is
    validated.  Every flip-flop's consumers move to its pseudo-PI in one
    {!Netlist.replace_uses} pass, so the cost is linear in the netlist's
    size, not one whole-netlist pass per flip-flop.  Node ids, names and
    output order are those the per-flip-flop construction gave: the
    pseudo-PIs follow the original nodes in flip-flop order, then the
    pseudo-POs follow the original outputs in the same order. *)
val run : Netlist.t -> Netlist.t * mapping list
