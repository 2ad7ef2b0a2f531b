(** Incremental cost and feasibility evaluation for the assignment
    searches.

    [Cost.evaluate] walks every access and rebuilds every block
    transfer of a mapping from scratch — fine for one evaluation,
    wasteful inside a search that probes thousands of single-move
    variations of the same mapping. This engine caches the per-access
    and per-block-transfer contributions of {!Cost.access_contribution}
    and {!Cost.bt_contribution} and keeps them keyed by the move kinds
    that can invalidate them:

    - [Set_placement r _] dirties only the contribution and the chain
      transfers of access [r];
    - [Set_array a _] dirties the access contributions of the [Direct]
      accesses of [a] (their serving layer moved) and the chain
      transfers of every access of [a] (their outermost source moved);
      the whole-array fill/drain streams are derived once per
      [(array, level)] and kept beside the array's home level.

    {b Compiled alternatives.} The engine compiles each placement it
    sees for an access once, the first time it sees it (keyed by
    physical identity, so the searches' hoisted alternatives hit every
    round), into one record: the share groups the placement joins on
    capacity-bound levels with the buffer it adds to each (lifetime and
    footprint as plain ints), and its cost terms per home level (the
    level holding the access's array), derived on first use. A
    structurally equal but physically distinct placement, or a
    hand-built chain the searches never generate, compiles a record of
    its own with the same contents. At most {!compiled_cap} records are
    kept per access; the oldest age out.

    Totals are then a re-fold of the current records' terms {e in the
    exact order [Cost.evaluate] folds them}, with loops over
    accumulators the engine owns — the engine never subtracts a stale
    term from a running total. Because every cached term is produced by
    the same functions [Cost.evaluate] uses and the re-fold preserves
    the float summation order, {!objective_value} is bit-identical to
    [Cost.scalar objective (Cost.evaluate (mapping t))] — the invariant
    {!Mhla_sim.Crosscheck} re-verifies and the fuzz suite hammers. An
    engine-driven search therefore reproduces the oracle-driven search
    decision-for-decision. A probe points the moved access (or the
    moved array's home) at the new terms, folds, and points it back: no
    undo closure, no list built.

    The engine answers feasibility the same way. [Mapping.occupancy_ok]
    rebuilds every on-chip layer's blocks and sweeps them; the engine
    instead keeps, for each on-chip level with a capacity, a per-slot
    byte profile over the schedule horizon ([In_place]) or a single
    byte total ([Sum]), each [share_key] group's sharers in placements
    order with its charged block, and a count of slots over capacity.
    {!feasible} stages, in scratch buffers the engine owns, the new
    block of every share group a [Set_placement] leaves or joins (read
    off the old and new compiled records), swaps the changed ones in,
    reads the over-capacity count and swaps them back; a [Set_array]
    charges its one array block the same way. {!commit} installs the
    staged blocks. Once a search has compiled its alternatives, a check
    allocates nothing and a probe about four minor words, its boxed
    result among them (EXT-ENGINE measures both). *)

(** A single search move. Owned here (rather than by [Assign], which
    re-exports it) so the engine does not depend on the search. *)
type move =
  | Set_placement of Mhla_reuse.Analysis.access_ref * Mapping.placement
  | Set_array of string * int option

(** Counters accumulated since {!create}. [contribs_reused] vs
    [contribs_recomputed] is the cache hit/miss split over the
    per-unit contributions folded by probes; [entries_invalidated]
    counts cached access entries dirtied by [Set_array] applications
    (the cost of whole-array moves under dirty tracking). *)
type stats = {
  probes : int;
  commits : int;
  contribs_reused : int;
  contribs_recomputed : int;
  entries_invalidated : int;
}

type t

val create :
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?policy:Mhla_lifetime.Occupancy.policy ->
  objective:Cost.objective ->
  Mapping.t ->
  t
(** An engine positioned on the given mapping. All contributions and
    the occupancy state are computed once, eagerly. [policy] (default
    [In_place], as for [Mapping.occupancy_ok]) is the sizing
    {!feasible} checks against. [telemetry] (default
    {!Mhla_obs.Telemetry.noop}) receives [engine.create] /
    [engine.probe] / [engine.commit] spans and the
    [engine.probes]/[engine.commits]/[engine.cache_hits]/
    [engine.cache_misses]/[engine.entries_invalidated] counters; a
    disabled sink leaves every result bit-identical. *)

val mapping : t -> Mapping.t
(** The mapping the engine is positioned on — the genuine [Mapping.t],
    built through the same [Mapping.with_placement] /
    [Mapping.with_array_layer] calls an oracle search would make, so
    downstream steps (TE, reports) see an identical value. *)

val probe : t -> move -> float
(** The objective of [mapping t] with [move] applied, recomputing only
    the contributions the move touches; the engine's position is
    unchanged. Bit-identical to
    [Cost.scalar objective (Cost.evaluate (Assign.apply_move (mapping t) move))].
    The move must be well-formed (as produced by [Assign.moves]) —
    probing does not re-run [Mapping]'s validation. *)

val feasible : t -> move -> bool
(** Whether [mapping t] with [move] applied fits every on-chip layer
    under the engine's policy; the engine's position is unchanged.
    Exactly [Mapping.occupancy_ok ~policy (Assign.apply_move (mapping t) move)]
    — which is [Assign.feasible] for a config carrying the same policy —
    at every position, infeasible ones included: the engine merges
    share-group sharers as [Mapping.layer_blocks] does (hull of the
    non-empty lifetimes, largest footprint) and widens an empty
    lifetime to one slot as [Occupancy.peak_bytes] does. As for
    {!probe}, the move must be well-formed. *)

val commit : t -> move -> unit
(** Advance the engine's position by [move], keeping the cached
    contributions it does not touch.
    @raise Mhla_util.Error.Error if the underlying [Mapping] update
    rejects the move; the engine is unchanged in that case. *)

val objective_value : t -> float
(** [Cost.scalar objective] of {!breakdown}. *)

val breakdown : t -> Cost.breakdown
(** The full cost breakdown at the current position, re-folded from the
    cache; bit-identical to [Cost.evaluate (mapping t)]. *)

val stats : t -> stats

val compiled : t -> Mhla_reuse.Analysis.access_ref -> int
(** How many alternatives of this access the engine holds compiled;
    never more than {!compiled_cap}. *)

val compiled_cap : int
