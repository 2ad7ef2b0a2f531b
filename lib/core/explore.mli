(** The complete MHLA-with-TE flow and trade-off exploration.

    [run] reproduces the tool's pipeline: evaluate the out-of-the-box
    code, run selection & assignment (step 1), run Time Extensions
    (step 2), and compute the ideal 0-wait bound. [sweep] repeats the
    flow over a range of on-chip sizes — the "thorough trade-off
    exploration for different memory layer sizes" of the abstract. *)

type result = {
  program : Mhla_ir.Program.t;
  hierarchy : Mhla_arch.Hierarchy.t;
  baseline : Cost.breakdown;  (** everything off-chip, no copies *)
  assign : Assign.result;  (** step 1 outcome *)
  te : Prefetch.schedule;  (** step 2 outcome *)
  after_assign : Cost.breakdown;
  after_te : Cost.breakdown;
  ideal : Cost.breakdown;  (** step-1 mapping, transfers fully hidden *)
}

(** Which step-1 search engine to use. [First_improvement] is
    {!Assign.greedy} with first-improving (rather than steepest)
    descent — one of the move-selection policies the policy layer
    races. *)
type search =
  | Greedy
  | First_improvement
  | Annealing of { seed : int64; iterations : int }

val run :
  ?config:Assign.config ->
  ?search:search ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?reuse:Mapping.reuse ->
  ?checkpoint:(unit -> unit) ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  result
(** [search] defaults to [Greedy]; TE is {!Prefetch.run}: the paper's
    [BT_time / size] order, fetches only. [reuse]
    shares a {!Mapping.precompute} of the same program (the sweep
    hoists one across all its points); without it the run computes one
    and shares it between the baseline and the search. The baseline and
    the search both size layers under [config]'s policy, and TE reads it
    off the search's mapping. [telemetry] (default noop) wraps
    each pipeline stage in a span ([explore.run] around
    [explore.baseline] / [explore.assign] / [explore.te] /
    [explore.evaluate]) and is passed down to {!Assign} and
    {!Prefetch}; it never changes the result. [checkpoint] is handed to
    the step-1 search (see {!Assign.greedy}): a deadline guard may
    raise from it to abandon the run between search steps. *)

(** Normalised views used by the paper's figures (baseline = 1.0). *)

val time_after_assign : result -> float

val time_after_te : result -> float

val time_ideal : result -> float

val energy_after_assign : result -> float

val energy_after_te : result -> float

val assign_time_gain_percent : result -> float
(** Step-1 execution-time reduction vs. out-of-the-box (Figure 2's
    40–60 %). *)

val te_extra_gain_percent : result -> float
(** Step-2 reduction relative to the step-1 time (the paper's "up to
    33 %"). *)

val energy_gain_percent : result -> float
(** Step-1 energy reduction (Figure 3's up to 70 %). *)

type sweep_point = { onchip_bytes : int; point_result : result }

val sweep :
  ?config:Assign.config ->
  ?dma:bool ->
  ?jobs:int ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?checkpoint:(unit -> unit) ->
  sizes:int list ->
  Mhla_ir.Program.t ->
  sweep_point list
(** The greedy flow ({!run} with its default search) on
    two-level platforms of each size ([dma] defaults to [true]).
    [sizes] is deduped and sorted ascending before fanning out, so a
    duplicated size never burns a worker domain on identical work;
    points come back in that normalised order.

    Points are independent, so they run on a {!Mhla_util.Domain_pool}
    of [jobs] worker domains (default
    [Domain.recommended_domain_count]); the reuse analysis is computed
    once and shared, and each worker solves its points through one
    {!Assign.state}, re-seated per point, so the program's search
    set-up is built once per worker, not once per point. Each point's
    result is exactly {!run}'s there, counters included, and results
    are identical for every [jobs] value — [jobs:1] is plain
    [List.map].

    [telemetry] (default noop) gives each worker domain its own child
    sink (one [sweep.worker] span per worker, a [sweep.point] span with
    the on-chip size around every point, and the full per-point event
    stream inside it); the children are merged back into the parent
    deterministically in worker order after the join. The merged
    counter totals are identical for every [jobs] value, and so is the
    event multiset once [seq], [tid], [ts_ns], the [sweep.worker] spans
    and each [Counter] event's running total (its worker sink's own)
    are set aside.

    [checkpoint] is passed to every point's {!run}; it must be safe to
    call from any worker domain (the deadline guards built on
    {!Mhla_util.Domain_pool} only read a pre-computed deadline and the
    clock, which is). A raise abandons that point; unstarted points are
    then skipped at the pool's cancellation check. *)

(** {2 Per-layer budget-vector exploration}

    The full design-space search the paper's "thorough trade-off
    exploration" calls for: instead of one scalar on-chip size, every
    on-chip level gets its own budget axis, and the surface explored
    is (on-chip size, execution time, energy) — three objectives, all
    minimised. *)

type pareto_point = {
  budgets : int list;  (** bytes per on-chip level, innermost first *)
  point_result : result;  (** the full flow at that platform *)
}

type pareto_stats = {
  grid_points : int;  (** budget vectors in the grid *)
  evaluated : int;  (** vectors actually solved *)
  pruned : int;  (** vectors skipped by the bound test *)
  deadline_skipped : int;  (** vectors abandoned after expiry *)
  regions : int;  (** branch-and-bound work units *)
  regions_pruned : int;  (** regions discarded wholesale *)
}

type pareto_outcome = {
  frontier : pareto_point Mhla_util.Pareto.Nd.t;
  stats : pareto_stats;
  partial : bool;
      (** [true] when a deadline expired mid-search: the frontier is
          the best surface seen so far, not the complete one *)
}

val pareto_objectives : pareto_point -> float array
(** [[| total on-chip bytes; cycles after TE; energy after TE |]] —
    the vector the frontier orders points by. *)

val pareto :
  ?config:Assign.config ->
  ?dma:bool ->
  ?search:search ->
  ?jobs:int ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?checkpoint:(unit -> unit) ->
  ?reuse:Mapping.reuse ->
  axes:int list list ->
  Mhla_ir.Program.t ->
  pareto_outcome
(** Branch-and-bound over the budget grid of [axes] (one candidate
    size list per on-chip level, see
    {!Mhla_arch.Presets.budget_grid}); each explored vector runs the
    full {!run} flow on the {!Mhla_arch.Presets.multi_level} platform
    it names, sharing one reuse precompute. Each worker domain solves
    its points through one {!Assign.state}, as {!sweep}'s do; every
    point's result is exactly {!run}'s there.

    Pruning: a region (a run of the grid along the innermost axis) is
    discarded when some already-evaluated point has strictly smaller
    total size and beats the region's {!Cost.lower_bound} at its min
    corner on both cycles and energy — which proves every point of the
    region strictly dominated, whatever the search would return for
    it. Evaluated points are shared across the {!Mhla_util.Domain_pool}
    workers through an atomic frontier snapshot, so later regions
    prune against everything already known. Because pruned points are
    {e provably} off the frontier, the returned frontier — folded from
    the evaluated points in canonical grid order, first writer winning
    ties — is bit-identical for every [jobs] value; only [stats] (how
    much was pruned, a timing-dependent quantity) may differ between
    runs with [jobs > 1].

    [telemetry] records a [pareto.region] span per region,
    [pareto.point] / [pareto.region_pruned] instants, and each worker's
    stream under its own child sink; with [jobs > 1] the pruning events
    are timing-dependent, unlike {!sweep}'s.

    [checkpoint] (typically a deadline guard) is passed to every
    point's {!run}; a raise with kind [Deadline] abandons the search
    {e gracefully}: remaining points are skipped, [partial] is set,
    and the best-so-far surface is returned instead of the exception
    propagating. Other exceptions propagate. *)
