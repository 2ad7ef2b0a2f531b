(** Greedy structure-preserving shrinker for counterexample programs.

    Given a failing program and a predicate meaning "still fails", the
    shrinker repeatedly applies the first size-reducing edit that keeps
    the predicate true, restarting the scan after every success, until
    no edit applies — a local minimum. The edit vocabulary preserves
    program validity: delete a subtree, inline a loop (substituting its
    iterator by 0), halve or decrement a trip count, drop an array
    dimension, drop an access, drop or halve a subscript term, halve a
    subscript constant, halve a statement's work. After each edit the
    program is rebuilt through {!Mhla_ir.Program.make} with minimal
    recomputed array extents and unused declarations dropped, so every
    intermediate candidate is a valid, in-bounds program.

    The edit enumeration is deterministic, so the same input and
    predicate always shrink to the byte-identical minimum — which is
    what makes the reproducers printed by [mhla fuzz] stable across
    runs and machines. *)

val run :
  predicate:(Mhla_ir.Program.t -> bool) ->
  Mhla_ir.Program.t ->
  Mhla_ir.Program.t
(** [run ~predicate p] assumes [predicate p = true] and returns a
    locally minimal program on which the predicate still holds; if the
    predicate rejects [p] itself, [p] is returned unchanged. The
    predicate must not raise — wrap checkers that can throw.
    At most 20000 candidate evaluations are made, as a safety stop;
    every accepted edit strictly decreases program size, so
    termination does not depend on it. *)
