(** Deadlines for solver runs, on the monotonic clock.

    The solvers accept a [checkpoint] hook called between search steps
    (see {!Mhla_core.Assign.greedy}); this module builds the standard
    guard: a closure that compares the clock against an absolute
    deadline and raises {!Mhla_util.Error.Error} with kind [Deadline]
    once it has passed. Both the service executor and the CLI's
    [--deadline-ms] flag use it, so a blown deadline looks the same
    everywhere: exit code 75 at the CLI, a [timeout] response on the
    wire. *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in integer nanoseconds: never decreases, and
    wall-clock steps do not move it, so elapsed times and deadlines are
    immune to NTP adjustments. Only differences are meaningful. *)

val after_ms : int -> int
(** [after_ms ms] is the absolute [now_ns () + ms * 1_000_000].
    @raise Mhla_util.Error.Error ([Invalid_input]) on negative [ms].
    [ms = 0] yields a deadline that is already due — the degenerate
    request the chaos soak uses to pin down timeout handling. *)

val checkpoint : context:string -> deadline_ns:int -> unit -> unit
(** The guard closure: a no-op while [now_ns () <= deadline_ns], then
    raises kind [Deadline] naming [context]. Safe to call from any
    domain (it only reads the clock). *)
