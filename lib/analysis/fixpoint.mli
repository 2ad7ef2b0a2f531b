(** Worklist dataflow solver and the whole-program analysis built on it.

    The generic half is {!Solver}: a functor over a join-semilattice
    with widening ({!DOMAIN}) that solves an arbitrary flow graph with
    monotone edge transfers by chaotic iteration — ascending with
    widening at the designated (loop-head) nodes until stable, then a
    bounded descending phase that recovers the precision widening threw
    away (the guard meets on the back edges narrow the headed-to-top
    ranges back to the loop domains).

    The concrete half is {!analyze}: the MHLA IR's loop tree becomes a
    flow graph (one node per statement, a head and an exit node per
    loop; the entry edge of a loop binds its iterator to [\[0,0\]], the
    back edge increments it under the trip-count guard, the exit edge
    drops it from scope), solved in the {!Domain.Env} interval domain.
    At the fixpoint every statement's environment maps each enclosing
    iterator to exactly [\[0, trip-1\]] — the value ranges the bounds
    and capacity passes consume are {e derived} by the solver, no
    longer enumerated per check, and the iteration count is bounded by
    the nesting structure, never by the trip counts.

    The same construction walk numbers statements in source order, so
    the solution carries the program-order timeline (statement slots,
    loop spans) the capacity pass sizes lifetimes on — derived from the
    one traversal the abstract interpretation is anchored to. *)

(** What {!Solver} needs from an abstract domain. *)
module type DOMAIN = sig
  type t

  val bottom : t

  val equal : t -> t -> bool

  val join : t -> t -> t

  val widen : t -> t -> t
end

type solver_stats = {
  nodes : int;
  edges : int;
  visits : int;  (** worklist pops during the ascending phase *)
  widenings : int;  (** widening applications that lost precision *)
  sweeps : int;  (** descending (narrowing) passes run *)
}

module Solver (D : DOMAIN) : sig
  type graph = {
    node_count : int;
    edges : (int * (D.t -> D.t) * int) list;
        (** [(src, transfer, dst)]; transfers must be monotone *)
    widen_at : int -> bool;  (** widening points — every cycle must
                                 contain at least one *)
    clamp : int -> D.t -> D.t;
        (** Per-node threshold (sound invariant) met in after widening;
            without it a widened value circulating an inner cycle is a
            stable fixpoint plain descending sweeps cannot leave.
            [fun _ v -> v] when no invariant is known. *)
    entry : int;
    init : D.t;  (** joined into the entry node's inflow *)
  }

  type outcome = { values : D.t array; stats : solver_stats }

  val solve : graph -> outcome
  (** Least-fixpoint approximation: ascending chaotic iteration with
      widening (after a short delay) at [widen_at] nodes, then at most
      four plain descending sweeps. *)
end

(** The solved interval analysis of one program, plus the program-order
    timeline derived from the same traversal. *)
type solution

val analyze : Mhla_ir.Program.t -> solution
(** Build and solve the flow graph of [program] in {!Domain.Env}. Pure
    function of the program; {!Pass.subject} memoizes one per subject. *)

val stats : solution -> solver_stats

val env_at : solution -> stmt:string -> Domain.Env.t
(** The fixpoint environment at a statement: every enclosing iterator
    bound to its full range. {!Domain.Env.bottom} for an unknown
    statement (nothing flows to a node that does not exist). *)

val eval : solution -> stmt:string -> Mhla_ir.Affine.t -> Domain.Itv.t
(** Interval value of an affine subscript at a statement, out-of-scope
    iterators held at 0 — the derived replacement for the enumerated
    [Affine.min_value]/[max_value] sweep. *)

val range_trail : solution -> stmt:string -> Mhla_ir.Affine.t -> string list
(** Human-readable provenance of {!eval}'s answer: the contributing
    iterator ranges and the resulting interval, for [--explain] and
    verbose diagnostics. *)

(** {2 Timeline} — same semantics as {!Mhla_lifetime.Schedule}, derived
    from the analysis traversal (the equivalence is pinned by tests). *)

val horizon : solution -> int

val stmt_interval : solution -> string -> Mhla_util.Interval.t
(** @raise Not_found for an unknown statement. *)

val loop_interval : solution -> string -> Mhla_util.Interval.t
(** @raise Not_found for an unknown iterator. *)

val array_interval : solution -> string -> Mhla_util.Interval.t

val candidate_interval : solution -> Mhla_reuse.Candidate.t -> Mhla_util.Interval.t
(** The candidate buffer's lifetime: its refresh loop's span, else the
    owning statement's outermost loop span, else the statement slot. *)
