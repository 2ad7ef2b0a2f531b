(** Suppression rules — the [.mhla-lint] file.

    One rule per line: a catalogued diagnostic code followed by zero or
    more [field=value] constraints matched against the diagnostic's
    rendered location fields (the same [key=value] pairs
    {!Diagnostic.pp} prints). A rule with no constraints
    suppresses every finding of its code; constraints narrow it —
    [MHLA305 stmt=S2 layer=0] silences only that placement's shadowed
    link. [#] starts a comment, blank lines are skipped.

    Honoured by the CLI (auto-loading [./.mhla-lint], or the file named
    by [--lint-config]), the service (per-config rules applied to
    [--verify-live] answers) and CI. Suppressed findings are counted, not
    silently vanished: every report says how many rules removed. *)

type t

val empty : t

val parse : origin:string -> string -> t
(** [origin] names the source (a file path) for error messages.
    @raise Mhla_util.Error.Error on an unknown code or a malformed
    constraint — a typo in a suppression file must not silently
    suppress nothing. *)

val load : string -> t
(** Read and {!parse} a file. *)

val apply : t -> Diagnostic.t list -> Diagnostic.t list * int
(** Partition: the diagnostics no rule matches, and how many were
    dropped. *)

val rules : t -> (string * (string * string) list) list
(** The parsed rules ([code, constraints]) — for tests and [--explain]
    of what a config does. *)
