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

    {b Compiled alternatives.} A caller names a move to the engine
    only through a {!handle}: {!resolve} validates the move once and
    turns it into its access's entry and the compiled record of its
    placement, or its array's id and target. A record holds the share
    groups the placement joins on capacity-bound levels with the
    buffer it adds to each (lifetime and footprint as plain ints),
    and, per home level (the level holding the access's array), its
    chain transfers with their interned dedupe keys and its cost
    terms, all derived on first use. Each entry keeps one [Direct]
    record, which its seats and every handle resolved to [Direct]
    share; a chain's record is compiled by the {!resolve} that names
    it and lives in that handle, never looked up again. A seat on a
    start mapping that holds chains compiles them afresh (the
    searches always start from [Mapping.direct]).

    [Assign]'s searches resolve each of their moves once per solve
    state. Entry indices and compiled records outlive every
    {!reseat}, so a handle is good for the engine's life, and the
    searches' hot loops ({!feasible}, {!probe}) never hash an access
    or an array name.

    {b Once per program, once per hierarchy.} A budget exploration
    solves one program on many hierarchies of one shape, so an engine
    can be {!reseat}ed instead of created again. What depends only on
    the program, its reuse analysis, the transfer mode, the policy and
    the hierarchy's shape is built once and kept: the access entries
    and their index, the arrays with their block spans and dirty lists,
    the share groups, the compiled alternatives, every derived block
    transfer and its dedupe-key id. What depends on the hierarchy is
    reset by each seat: the level profiles take the new capacities with
    no load, the groups and entries are emptied and refilled from the
    start mapping, the homes and promotion order are the start
    mapping's, the counters restart, and every cost term (access
    contribution, chain and fill/drain transfer contribution) is marked
    stale and derived again by the same [Cost] functions the first time
    a fold needs it. A reseated engine therefore gives every result and
    every counter a created one gives.

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
    order with its charged block, a count of slots over capacity, and
    each level's peak slot load, refreshed by every seat and commit.
    {!feasible} first tries two certified shortcuts (see there) that
    read only the peaks and the compiled records; what they leave
    undecided it stages, in scratch buffers the engine owns: the new
    block of every share group a [Set_placement] leaves or joins (read
    off the old and new compiled records), swapped in, the
    over-capacity count read, and swapped back; a [Set_array] charges
    its one array block the same way. {!commit} installs the staged
    blocks. A check allocates nothing and a probe four minor words,
    its boxed result among them (EXT-ENGINE measures both).

    {b Independence, and what a caller may skip.} A move's terms are
    the terms of its own entry (a [Set_placement]) or of its array's
    entries and fill/drain streams (a [Set_array]), each a function of
    that entry's placement and its array's home level only; transfers
    dedupe on keys that start with the array's name. So the exact
    (real-number) change a move makes to the cycle and energy totals,
    and to {!last_terms}, depends on no other array's state: a commit
    on one array leaves every other array's move deltas as they were.
    Both searches build on this. [Assign.greedy] and
    [Assign.simulated_annealing] cache each probed move's deltas read
    off {!last_cycles}/{!last_energy}/{!last_terms} and invalidate only
    the committed array's moves. The greedy skips a probe when the
    cached estimate, less a rounding margin derived from the fold
    lengths, cannot improve on the round's threshold or beat an exact
    value already found; the annealing skips one when that lower bound
    already makes the move's Boltzmann test fail. Cycle deltas are
    exact ints; the margin covers the float energy fold, whose
    non-negative terms bound its error by about [T * 2^-53 * E] for a
    fold of [T] terms and total [E]. *)

(** A single search move. Owned here (rather than by [Assign], which
    re-exports it) so the engine does not depend on the search. *)
type move =
  | Set_placement of Mhla_reuse.Analysis.access_ref * Mapping.placement
  | Set_array of string * int option

(** Counters accumulated since the engine was last seated ({!create}
    or {!reseat}). [contribs_reused] vs
    [contribs_recomputed] is the cache hit/miss split over the
    per-unit contributions folded by probes; [entries_invalidated]
    counts cached access entries dirtied by [Set_array] applications
    (the cost of whole-array moves under dirty tracking);
    [feasible_staged] counts the {!feasible} checks neither shortcut
    decided, which staged their blocks. *)
type stats = {
  probes : int;
  commits : int;
  contribs_reused : int;
  contribs_recomputed : int;
  entries_invalidated : int;
  feasible_staged : int;
}

type t

val create :
  ?telemetry:Mhla_obs.Telemetry.t ->
  objective:Cost.objective ->
  Mapping.t ->
  t
(** An engine positioned on the given mapping: it builds the
    hierarchy-independent state, then seats it on the mapping as
    {!reseat} does. The current position's contributions and the
    occupancy state are computed eagerly. {!feasible} sizes layers
    under the mapping's [policy], as [Mapping.occupancy_ok] does.
    [telemetry] (default {!Mhla_obs.Telemetry.noop}) receives an
    [engine.create] span around the seat, [engine.probe] /
    [engine.commit] spans and the
    [engine.probes]/[engine.commits]/[engine.cache_hits]/
    [engine.cache_misses]/[engine.entries_invalidated] counters; a
    disabled sink leaves every result bit-identical. *)

val compatible : t -> Mapping.t -> bool
(** Whether {!reseat} accepts the mapping: the physically same program,
    infos and schedule as the mapping the engine was created on, the
    same transfer mode and policy, and a hierarchy with as many levels
    whose capacity-bound levels are the same ones. Capacities,
    latencies, energies and the DMA engine may all differ. *)

val reseat : ?telemetry:Mhla_obs.Telemetry.t -> t -> Mapping.t -> unit
(** Position the engine on another start mapping, typically the same
    program on another budget point: afterwards it answers every query,
    and counts every probe and term in {!stats}, exactly as
    [create ~objective m] would. The hierarchy-independent state is
    kept; the rest is reset, and the cost terms are derived again when
    first needed. [telemetry] replaces the engine's sink and gets the
    same [engine.create] span as {!create}.
    @raise Invalid_argument unless [compatible t m]. *)

val mapping : t -> Mapping.t
(** The mapping the engine is positioned on, built on demand: the
    first call after a {!commit} assembles it from each access's
    current placement and the promoted arrays (latest promotion first),
    later calls return that value until the next commit. It is
    structurally equal to what the same moves' [Mapping.with_placement]
    / [Mapping.with_array_layer] calls build from the mapping given to
    {!create} or {!reseat}, so downstream steps (TE, reports) see an
    identical value.
    A search that reads it only on a new best pays for one list build
    per best, not per commit. *)

type handle
(** A move resolved against one engine: see {!resolve}. *)

val resolve : t -> move -> handle
(** The move's handle: its access's entry and the compiled record of
    its placement (the entry's own for [Direct], compiled now for a
    chain), or its array's id and target. The move is validated here,
    as the [Mapping] update would validate it
    ([Mapping.check_placement] / [Mapping.check_array_layer]). Both
    checks read only the program and the hierarchy's shape, which
    {!reseat} keeps, so the handle stays valid, and keeps answering as
    its move does, across every later {!commit} and {!reseat} of this
    engine. A handle belongs to the engine that resolved it.
    @raise Mhla_util.Error.Error ([Invalid_input]) if the [Mapping]
    update would reject the move; the engine is unchanged then. *)

val probe : t -> handle -> float
(** The objective of [mapping t] with the handle's move applied,
    recomputing only the contributions the move touches; the engine's
    position is unchanged. Bit-identical to
    [Cost.scalar objective (Cost.evaluate (Assign.apply_move (mapping t) move))]. *)

val feasible : t -> handle -> bool
(** Whether [mapping t] with the handle's move applied fits every
    on-chip layer under the mapping's policy; the engine's position is
    unchanged. Exactly [Mapping.occupancy_ok (Assign.apply_move
    (mapping t) move)] at every position, infeasible ones included:
    the engine merges share-group sharers as [Mapping.layer_blocks]
    does (hull of the non-empty lifetimes, largest footprint) and
    widens an empty lifetime to one slot as [Occupancy.peak_bytes]
    does.

    Most checks are decided by one of two shortcuts, each exact:
    - {b reject}: a sharer of the target placement is larger than its
      level's capacity (its group's block is at least that large), or
      a [Set_array]'s array is larger than the target level;
    - {b accept}, only while no slot is over capacity (true at every
      position the searches reach, since they commit feasible moves
      only): on every level, the peak slot load plus the move's gain
      fits. The gain counts, for each group the placement joins,
      [max] of the group's charged footprint and the joining sharer's
      own — a small sharer that widens the group's hull adds the
      group's largest footprint on the newly covered slots, not its
      own size. A group it only leaves gains nothing (its hull and
      footprint can only shrink), unless the engine has compiled a
      sharer with an empty lifetime, which, left alone, is widened
      where it sits: then such a group gains its charged footprint. No
      valid program has one, since a loop body is never empty. A
      [Set_array]'s gain is its array's block.
    Every other check stages the changed blocks; {!stats} counts those
    as [feasible_staged]. *)

val commit : t -> handle -> unit
(** Advance the engine's position by the handle's move, keeping the
    cached contributions it does not touch. {!resolve} has validated
    the move, so a commit cannot fail; no mapping is rebuilt:
    {!mapping} builds it when next asked. *)

val objective_value : t -> float
(** [Cost.scalar objective] of {!breakdown}. *)

val breakdown : t -> Cost.breakdown
(** The full cost breakdown at the current position, re-folded from the
    cache; bit-identical to [Cost.evaluate (mapping t)]. *)

val last_cycles : t -> int

val last_energy : t -> float

val last_terms : t -> int
(** The totals of the engine's last fold — the last {!probe},
    {!objective_value} or {!breakdown} — read straight from its
    accumulators, without folding or allocating: total cycles, total
    energy, and how many per-unit contributions the fold added (each
    access once, each kept block transfer once). After a probe they
    are the moved mapping's totals; after a commit of a probed move, a
    fresh fold would give them again bit for bit. Both lazy searches
    ([Assign.greedy], [Assign.simulated_annealing]) cache each probe's
    deltas from them and bound the float error of the energy fold by
    its length. *)

val stats : t -> stats
