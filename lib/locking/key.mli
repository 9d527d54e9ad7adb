(** Key vectors.

    A key assignment binds each key-input name to a Boolean.  For
    conventional key-gates the bit directly configures the gate; for a GK
    the two bits select the KEYGEN's output among {i constant 0},
    {i transition delayed by DA}, {i transition delayed by DB} and
    {i constant 1} (Fig. 6) — so "wrong key" can mean either a constant
    (the GK degenerates to its stable behaviour) or a mistimed
    transition. *)

type assignment = (string * bool) list

(** [random ~seed names] draws a uniformly random assignment. *)
val random : seed:int -> string list -> assignment

(** [flip a name] toggles one bit.  @raise Not_found. *)
val flip : assignment -> string -> assignment

(** [random_wrong ~seed correct] is an assignment over the same names that
    differs from [correct] in at least one bit. *)
val random_wrong : seed:int -> assignment -> assignment

(** [to_string a] is e.g. ["k0=1 k1=0"], in the assignment's order. *)
val to_string : assignment -> string

(** [enumerate names] is all 2^n assignments (n ≤ 20), counting up
    with the first name as the least significant bit.  Each assignment
    is built only when the sequence reaches it.
    @raise Invalid_argument at once when n > 20. *)
val enumerate : string list -> assignment Seq.t

val equal : assignment -> assignment -> bool
