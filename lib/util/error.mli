(** Structured, typed errors for the whole tool.

    Every guard in the library used to raise a bare [Invalid_argument]
    or [Failure]; front-ends could only print the backtrace. This module
    gives rejections a shape — a {!kind} for choosing an exit code, the
    [context] ("Module.function") that rejected, a [message] carrying
    the offending values and an optional actionable [hint] — so the CLI
    can turn any library error into a friendly diagnostic and a
    meaningful non-zero exit code. *)

(** Broad failure classes, each with a stable CLI exit code. *)
type kind =
  | Invalid_input  (** the caller passed a malformed or out-of-range value *)
  | Deadline  (** a caller-imposed time budget expired before completion *)
  | Internal  (** an invariant the library promised to keep was broken *)

type t = {
  kind : kind;
  context : string;  (** the rejecting "Module.function" *)
  message : string;  (** what was wrong, including the values seen *)
  hint : string option;  (** how the caller can fix it *)
}

exception Error of t
(** The one exception the library raises for anticipated failures. A
    printer is registered, so an uncaught [Error] still renders
    readably. *)

val make : ?hint:string -> kind -> context:string -> string -> t

val invalidf :
  ?hint:string -> context:string -> ('a, unit, string, 'b) format4 -> 'a
(** [invalidf ~context fmt ...] raises {!Error} with
    kind {!Invalid_input} and the formatted message. *)

val deadlinef :
  ?hint:string -> context:string -> ('a, unit, string, 'b) format4 -> 'a

val internalf :
  ?hint:string -> context:string -> ('a, unit, string, 'b) format4 -> 'a

val kind_label : kind -> string
(** ["invalid input"], ["deadline"] or ["internal"]. *)

val exit_code : t -> int
(** Stable CLI exit codes: [Invalid_input] → 2,
    [Deadline] → 75 (EX_TEMPFAIL — the same request may succeed with a
    larger budget), [Internal] → 70 (EX_SOFTWARE). *)

val to_string : t -> string
(** ["context: message (hint: ...)"]. *)

val catch : (unit -> 'a) -> ('a, t) result
(** Run a thunk, mapping a raised {!Error} — and, for the few sites not
    yet migrated, [Invalid_argument] and [Failure] — into [Result.Error].
    Other exceptions propagate. *)
