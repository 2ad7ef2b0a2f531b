(** Static program-order timeline.

    Every statement occurrence gets one slot of a sequential axis in
    source order; a loop covers the hull of its body's slots. Lifetimes
    of arrays and copy-candidate buffers are intervals on this axis, so
    two buffers used in {e sequentially disjoint} program phases get
    non-overlapping intervals and may share on-chip space — exactly the
    "limited lifetime of the arrays" opportunity the paper exploits
    (in-place optimisation). *)

type t

val of_program : Mhla_ir.Program.t -> t

val horizon : t -> int
(** One past the last slot. *)

val stmt_interval : t -> string -> Mhla_util.Interval.t
(** The single-slot interval of a statement.
    @raise Not_found for an unknown statement. *)

val loop_interval : t -> string -> Mhla_util.Interval.t
(** The interval covered by a loop (by iterator name).
    @raise Not_found for an unknown iterator. *)

val array_interval : t -> string -> Mhla_util.Interval.t
(** Hull of the slots of every statement touching the array; the empty
    interval for an array never accessed. Computed for every array by
    {!of_program}, so a query is one table lookup. *)

val candidate_interval : t -> Mhla_reuse.Candidate.t -> Mhla_util.Interval.t
(** Lifetime of a copy-candidate buffer: the span of its refresh loop
    (the outermost enclosing loop for levels 0 and 1), or the owning
    statement's slot for an unnested access. *)
