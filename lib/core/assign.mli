(** MHLA step 1: copy-candidate selection and layer assignment.

    Starting from the out-of-the-box mapping (everything off-chip), a
    steepest-descent greedy repeatedly applies the feasible move with
    the largest cost gain until no move improves the objective — the
    exploration engine of the MHLA tool. Moves are: serve an access
    through a copy chain (or revert it to Direct), and promote/demote a
    whole array to/from an on-chip layer. Feasibility is
    [Mapping.occupancy_ok]: every on-chip layer's occupancy, sized
    under the mapping's policy, within its capacity.

    Both searches probe moves through the incremental {!Engine}. Their
    from-scratch references, and the exhaustive search that measures
    the greedy's optimality gap, live in [Mhla_gen.Reference]. *)

type config = {
  objective : Cost.objective;
  transfer_mode : Mhla_reuse.Candidate.transfer_mode;
  policy : Mhla_lifetime.Occupancy.policy;
      (** the sizing policy, the one place a caller sets it: the
          searches hand it to [Mapping.direct], so the mapping they
          return carries it into TE and the verifier *)
  allow_array_promotion : bool;
  cc_top_k : int option;
      (** CC selection: [Some k] keeps, per access, only the [k] useful
          candidates with the highest reuse factor under
          [transfer_mode] (a stable ranking, so ties keep source
          order) in the copy-chain space. [Direct] always remains an
          alternative, so this narrows the search, never breaks it.
          [None] (the default) keeps every useful candidate. *)
}

val default_config : config
(** Energy-delay objective (the balanced trade-off point the figures
    report), [Delta] transfers (the full technique with inter-copy
    reuse), in-place sizing, array promotion on, every useful
    candidate kept. *)

(** One applied move, for reporting ({!describe_move} renders it). *)
type step = {
  move : Engine.move;
  gain : float;  (** objective decrease achieved by the move *)
  objective_after : float;
}

type result = {
  mapping : Mapping.t;
  breakdown : Cost.breakdown;
  steps : step list;
      (** in application order: every committed move for {!greedy},
          every new best for {!simulated_annealing} *)
  evaluations : int;
      (** objective evaluations spent (any flavour): the feasible
          candidates considered, whether or not the engine had to
          probe them *)
  probes : int;
      (** engine probes actually run. Both searches skip the probes
          their cached deltas certify (see {!greedy} and
          {!simulated_annealing}), so it can be far below
          [evaluations] *)
  cache_hits : int;
      (** per-unit contributions the engine reused across probes *)
  cache_misses : int;  (** contributions the engine had to recompute *)
  feasible_staged : int;
      (** feasibility checks the engine decided by staging blocks, not
          by its peak bound (see {!Engine.feasible}) *)
}

val alternatives :
  config -> Mapping.t -> Mhla_reuse.Analysis.info -> Mapping.placement list
(** All placements considered for an access: [Direct] plus every
    level-monotone copy chain over the on-chip layers, at most two
    links long (and no longer than the hierarchy's on-chip depth).
    Deterministic order. *)

(** A search move, shared with the incremental engine (which owns the
    type; this is a re-export). *)
type move = Engine.move =
  | Set_placement of Mhla_reuse.Analysis.access_ref * Mapping.placement
  | Set_array of string * int option

val describe_move : move -> string

val apply_move : Mapping.t -> move -> Mapping.t
(** Functional application through the validating [Mapping] updates. *)

val moves : config -> Mapping.t -> move list
(** Every move the searches consider from this mapping, deterministic
    order: placement changes for each access, then array
    promotions/demotions (when allowed). *)

(** {2 Solve state}

    A budget exploration solves one program on many hierarchies that
    differ only in their capacities. Most of a solve's set-up depends
    on the program, its reuse analysis and the config alone: the
    placement alternatives of every access, the move table with each
    move resolved to its {!Engine.handle}, and the {!Engine}'s
    entries, share groups, compiled alternatives and block transfers.
    A [state] keeps that part and re-seats it on each hierarchy
    ({!Engine.reseat}), so only the capacity-dependent part —
    level profiles, cost terms, the table's skip marks, delta cache and
    verdicts — is redone per point. A state is built on its first
    hierarchy, and built again when a later hierarchy has another
    number of levels or other capacity-bound levels. Every solve through
    a state returns exactly what the same solve from a fresh state
    returns; {!Explore.pareto} and {!Explore.sweep} keep one per worker
    domain. A state is mutable and belongs to one domain at a time. *)

type state

val prepare :
  ?config:config -> ?reuse:Mapping.reuse -> Mhla_ir.Program.t -> state
(** An empty state for [program] under [config] (default
    {!default_config}). [reuse] must be {!Mapping.precompute} of the
    program; without it the state computes one. Nothing else is built
    until the first solve. *)

val greedy_on :
  ?first_improvement:bool ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?checkpoint:(unit -> unit) ->
  state ->
  Mhla_arch.Hierarchy.t ->
  result
(** {!greedy} through a state: [greedy ~config ~reuse program h] is
    [greedy_on (prepare ~config ~reuse program) h]. A solve abandoned
    by a raising [checkpoint] leaves the state fit for the next one. *)

val simulated_annealing_on :
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?checkpoint:(unit -> unit) ->
  ?seed:int64 ->
  ?iterations:int ->
  state ->
  Mhla_arch.Hierarchy.t ->
  result
(** {!simulated_annealing} through a state, as {!greedy_on} is
    {!greedy}'s. *)

val greedy :
  ?config:config ->
  ?first_improvement:bool ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?reuse:Mapping.reuse ->
  ?checkpoint:(unit -> unit) ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  result
(** Steepest descent — or, with [first_improvement] (default [false]),
    first-improving descent: each round commits the first move of the
    deterministic move order that improves the objective instead of
    scanning every move for the best one (fewer probes per round, more
    rounds, a different — not necessarily worse — local optimum).

    The greedy is lazy: it re-probes a move only when its value could
    have changed or when it could win the round. A move's cost terms read only its own access (or array) and its
    array's home level, and transfers dedupe only within one array
    (every [share_key] starts with the array's name), so a commit on
    array [A] leaves the exact cycle and energy deltas of every other
    array's moves as they were. Each exact probe caches its move's
    cycle delta (an int, exact), energy delta and a bound on that
    delta's float error derived from the fold lengths (all energy
    terms are non-negative); a commit marks only its array's moves
    stale. Each round checks every unskipped move's feasibility, so
    [evaluations] counts every feasible candidate, as an eager scan
    would; a feasible move with a valid cache gets the estimate
    [current totals + delta] less its error margin, and is skipped when that lower bound
    reaches the improvement threshold or — steepest mode — exceeds an
    exact value already found. The stale moves are probed first, then
    the rest from the lowest bound up; ties go to the earliest move.
    Every skipped move provably neither improves nor wins, so the
    argmin and the first-in-order tie-break are the eager scan's, in
    both modes. [result.probes] counts the probes actually run. The
    cache lives in the move table and is allocated when a solve's
    first round finds an improving move. Each move's feasibility is
    checked incrementally, through the handle the state resolved for
    it ({!Engine.feasible}), never building the moved-to
    mapping. [reuse] shares a precomputed analysis/schedule
    (see {!Mapping.precompute}). Each call builds a fresh {!state}; a
    caller solving many hierarchies shares one through {!greedy_on}.
    [telemetry] (default noop) records an
    [assign.greedy] span, one [greedy.step] event per applied move and
    the engine's spans/counters; it never changes the result.
    [checkpoint] (default a no-op) is invoked at the top of every
    descent round; it may raise — e.g. a deadline guard raising
    {!Mhla_util.Error.Error} with kind [Deadline] — to abandon the
    search without corrupting any shared state. As long as it returns
    normally it must not observe or mutate the search, so the result
    stays independent of how often it fires. *)

val simulated_annealing :
  ?config:config ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?reuse:Mapping.reuse ->
  ?checkpoint:(unit -> unit) ->
  ?seed:int64 ->
  ?iterations:int ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  result
(** Stochastic alternative to {!greedy}: random feasible moves,
    accepted when improving or with Boltzmann probability under a
    geometric cooling schedule; returns the best mapping seen.
    Deterministic for a given [seed] (default [42L]); [iterations]
    defaults to [4000]. Escapes the local optima steepest descent can
    fall into (see the EXT-SEARCH bench), at ~30x the evaluations.
    [reuse] as in {!greedy}; feasibility is checked incrementally and
    a mapping is built only for an accepted move.

    The annealing is lazy on the greedy's delta cache: each exact probe
    caches its move's deltas, a commit marks only its array's moves
    stale, and a feasible move whose cached lower bound already puts
    it uphill gets its uniform draw at the point the eager loop would
    draw it; when that draw fails the Boltzmann test even against the
    bound (with a margin for [exp]'s rounding), the move is rejected
    without a probe. Every move that might be accepted is probed. The
    draws, [evaluations], steps and result are the eager loop's; only
    [probes] and the cache counters drop. [telemetry] records an
    [assign.anneal] span and per-iteration [anneal.accept]/
    [anneal.reject] events carrying the temperature, the delta and the
    objective — a certified rejection carries [certified: true] and
    the bound [delta_low] instead — plus [anneal.best] marks on
    improvements: the annealing trajectory as observable data.
    [checkpoint] is invoked before every iteration, as in {!greedy}. *)
