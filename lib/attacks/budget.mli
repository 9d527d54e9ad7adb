(** Cooperative attack budgets: DIP-iteration caps, oracle-query caps
    and wall-clock deadlines shared by every attack in the framework.

    A budget is a mutable counter bundle checked at the attack's natural
    boundaries (one DIP, one candidate key, one key bit...).  Exceeding
    any limit raises {!Exhausted}; the framework's {!Attack.run} wrapper
    converts that into a structured [Out_of_budget] verdict, so a
    budgeted attack never hangs and never dies with an unstructured
    exception.

    The SAT core has no interrupt hook, so enforcement is cooperative:
    one solver call can overshoot the deadline, but every loop re-checks
    before starting more work.  Oracle queries are charged through
    {!note_queries} by an oracle bound to the budget ({!Oracle.with_budget},
    which {!Attack.run} applies); memo hits are free. *)

type reason = Iterations | Queries | Deadline

val reason_name : reason -> string

exception Exhausted of reason

type t

(** [create ?max_iterations ?max_queries ?deadline_s ()] — omitted
    limits are unlimited.  [deadline_s] is a relative wall-clock budget
    in seconds starting now.  A zero or negative [deadline_s] is an
    {e already-expired} budget: the first {!check} (and hence the first
    {!tick} or {!note_queries}) raises {!Exhausted}[ Deadline], so an
    attack given such a budget performs no solver or oracle work and
    reports a structured [Out_of_budget] verdict.  @raise
    Invalid_argument on negative integer limits. *)
val create :
  ?max_iterations:int -> ?max_queries:int -> ?deadline_s:float -> unit -> t

(** A budget with no limits (still counts iterations and queries). *)
val unlimited : unit -> t

(** [tick t] charges one iteration.  @raise Exhausted when the iteration
    cap was already reached or the deadline has passed. *)
val tick : t -> unit

(** [check t] re-checks only the deadline (for loops whose unit of work
    is not an iteration). *)
val check : t -> unit

(** [note_queries t n] charges [n] oracle queries.
    @raise Exhausted past the query cap or deadline. *)
val note_queries : t -> int -> unit

val iterations : t -> int
val queries : t -> int
val elapsed_s : t -> float

(** The reason this budget raised {!Exhausted}, if it ever did — how a
    caller that caught the exception elsewhere recovers the cause. *)
val tripped : t -> reason option
