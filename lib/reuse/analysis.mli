(** Whole-program data-reuse analysis.

    For every array access of every statement, enumerate its copy
    candidates (one per nesting level, {!Candidate}) — the search space
    the assignment step explores. *)

type access_ref = { stmt : string; index : int }
(** Identity of one static access: owning statement and position within
    the statement's access list. *)

val pp_access_ref : access_ref Fmt.t

val compare_access_ref : access_ref -> access_ref -> int

(** Everything the later steps need to know about one static access. *)
type info = {
  ref_ : access_ref;
  array : string;
  decl : Mhla_ir.Array_decl.t;
  direction : Mhla_ir.Access.direction;
  executions : int;  (** dynamic occurrences of the access *)
  loops : (string * int) list;  (** enclosing loops, outermost first *)
  candidates : Candidate.t list;  (** by increasing level, 0 first *)
}

val analyze : Mhla_ir.Program.t -> info list
(** Accesses in source order. Candidate levels run from 0 (whole
    footprint, hoisted) to the nesting depth (per-execution fetch). *)

val find : info list -> access_ref -> info option

val useful_candidates : info -> Candidate.t list
(** Candidates that strictly shrink the buffer compared with every
    outer level (an inner candidate with the same footprint costs the
    same space but never fewer transfers, so it is dominated). The
    level-0 candidate is always kept. *)
