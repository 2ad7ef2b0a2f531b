(** Program and mapping lints — non-fatal code smells.

    Program-side: dead arrays ([MHLA301]), write-only arrays
    ([MHLA302]), loop iterators no subscript beneath them uses
    ([MHLA303]), trip-1 loops ([MHLA304]). Mapping-side (skipped
    without a mapping): chain links whose buffer does not shrink the
    next outer link's ([MHLA305]) and fetch streams with a reuse factor
    of at most 1 ([MHLA306]). All are warnings or infos — they never
    fail a check run unless promoted with [--Werror]. *)

val pass : Pass.t
