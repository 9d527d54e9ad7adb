(** Packed bit vectors: the positional query and reply format of
    [Oracle] and of the [Wire] protocol.

    A vector of [n] bits is a string of [bytes n] bytes.  Bit [i] sits in
    byte [i / 8] at weight [1 lsl (i mod 8)] (LSB-first), and the padding
    bits above bit [n - 1] in the last byte are 0, so every vector has
    exactly one encoding and can serve as a hash key. *)

(** [bytes n] is the length of a packed vector of [n] bits,
    [(n + 7) / 8]. *)
val bytes : int -> int

(** [get s i] is bit [i] of [s].
    @raise Invalid_argument when [i] lies outside [s]. *)
val get : string -> int -> bool

(** [init n f] is the packed vector whose bit [i] is [f i], for [i] in
    [0, n). *)
val init : int -> (int -> bool) -> string

(** [well_formed n s] holds when [s] is a packed vector of [n] bits: it
    is [bytes n] long and its padding bits are 0. *)
val well_formed : int -> string -> bool
