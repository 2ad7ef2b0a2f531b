(** In-loop verification: the full checker, kept current move by move.

    A from-scratch {!Verify.run} re-derives everything; a search
    applies thousands of single moves. This verifier mirrors the cost
    engine's dirty tracking ({!Mhla_core.Engine}) at the diagnostic
    level: findings live in buckets keyed by what can invalidate them
    (per-access chain lints, per-layer capacity, per-plan races,
    whole-schedule advisories, and a fixed program-only bucket computed
    once), and {!apply}/{!set_schedule} recompute only the dirtied
    buckets. {!report} funnels the buckets through the same
    {!Verify.report} normalisation as the batch path, so

    {[ report t = Verify.run (subject t) ]}

    holds on every program — the invariant the fuzz oracle's
    [incremental-verify] check replays under random move sequences, and
    the reason [--verify-live] solves cost almost nothing. *)

type t

val create :
  ?schedule:Mhla_core.Prefetch.schedule ->
  ?policy:Mhla_lifetime.Occupancy.policy ->
  ?suppress:Suppress.t ->
  Mhla_core.Mapping.t ->
  t
(** Position the verifier on a mapping: one fixpoint analysis, every
    bucket filled from scratch. [policy] must match what the
    surrounding solve checks against (default [In_place]); capacity is
    checked against the hierarchy, with no extra budget vector. *)

val apply : t -> Mhla_core.Engine.move -> unit
(** Advance by one search move, recomputing only the dirtied buckets:
    the moved access's chain lints, the transfer lints, and the
    capacity of the layers the move touched. *)

val set_schedule : t -> Mhla_core.Prefetch.schedule option -> unit
(** Install (or clear) a TE schedule: per-plan race and interference
    buckets, schedule-global advisories, and — since TE double buffers
    occupy layers — every level's capacity. *)

val rebase : t -> Mhla_core.Mapping.t -> unit
(** Jump to an arbitrary mapping of the same problem by diffing it
    into {!apply} moves — an annealing search's answer is the best
    state seen, not the current position.
    @raise Mhla_util.Error.Error when the target solves a different
    problem (program, hierarchy or transfer mode differ). *)

val report : t -> Verify.report
(** The current findings, normalised exactly like {!Verify.run}'s. *)

val subject : t -> Pass.subject
(** The equivalent batch subject (sharing this verifier's solved
    analysis) — what [report t] must match {!Verify.run} on. *)

val mapping : t -> Mhla_core.Mapping.t

val schedule : t -> Mhla_core.Prefetch.schedule option

val solution : t -> Fixpoint.solution

type stats = {
  moves_applied : int;
  schedule_updates : int;
  levels_recomputed : int;  (** per-layer capacity recomputations *)
  placements_relinted : int;
  plans_rechecked : int;
}

val stats : t -> stats
