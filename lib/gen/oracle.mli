(** The differential check battery behind [mhla fuzz].

    One fuzz case = generate a program ({!Generate.case}), solve it on
    a two-level DMA platform under the profile's budget, then assert
    every cross-model invariant the repository owns. A clean run
    returns no failures; each broken invariant becomes a named
    {!failure} that the CLI reports and shrinks. *)

(** Deliberate drift injected into one side of a differential, for
    CI's "does the gate actually fire?" self-test — the same idea as
    [mhla check --mutate]. *)
type mutation =
  | No_mutation
  | Drift_engine
      (** compare the incremental engine against an oracle value
          shifted by +1.0, and each search against a reference result
          with one phantom evaluation — the ["engine"] check must fail,
          once per comparison *)
  | Drift_interp
      (** expect one more dynamic event than the static model predicts
          — the ["interp"] check must fail *)

val mutation_names : (string * mutation) list
(** CLI-facing names: ["none"], ["engine"], ["interp"]. *)

type failure = {
  check : string;  (** one of {!check_names}, or ["exception"] *)
  detail : string;
}

val check_names : string list
(** The nine checks, in execution order: ["json"] (the service wire
    format's program codec is the identity across an
    emit → parse → decode → emit round trip), ["engine"] (incremental cost
    engine bit-identical to [Cost.evaluate] through a churn round
    trip; the greedy, which skips the probes its cached deltas
    certify, taking exactly {!Reference.greedy}'s decisions and
    evaluation count on the case's platform and on one with a second,
    8x larger on-chip level; and the case's annealing solve taking
    exactly {!Reference.simulated_annealing}'s on the same seed,
    iterations and platform), ["xval"] (pipeline-simulated vs analytic
    stalls within the cold-start bound, zero-fault replay exact — so a
    stream with a negative {!Mhla_sim.Robustness} slack margin or a
    zero-fault drift fails here),
    ["esim"] (the event-driven simulator tracks the analytic TE gain
    and replays the pipeline exactly), ["verifier-greedy"] and
    ["verifier-anneal"] (the static verifier accepts the greedy and
    annealing solver outputs, under {!Mhla_analysis.Verify.check_result}),
    ["interp"] (trace-interpreter access counts match the static and
    reuse-analysis counts), ["pareto"] (the branch-and-bound frontier
    over a tiny budget grid is exactly the brute-force fold of the full
    flow over every grid point), ["policy"] (the winner of a
    greedy/greedy-first/anneal {!Mhla_policy.Portfolio} race verifies
    clean and its objective is never worse than the plain greedy
    pipeline's). Any exception escaping the battery is caught and
    reported as a single ["exception"] failure. *)

type engine_check = {
  engine_objective : float;  (** incremental engine, after churn *)
  oracle_objective : float;  (** from-scratch [Cost.evaluate], same point *)
  feasibility_mismatches : int;
      (** churn moves for which [Engine.feasible] disagreed with
          [Mapping.occupancy_ok] of the applied move *)
  engine_consistent : bool;
      (** the two objectives were [Float.equal] (bit-identical) after
          {e every} commit of the churn, not just at the end, and there
          were no feasibility mismatches *)
}

val check_engine :
  ?objective:Mhla_core.Cost.objective -> Mhla_core.Mapping.t -> engine_check
(** Drive an incremental {!Mhla_core.Engine} through a round trip of
    every placement and every array promotion of the mapping (plus a
    cold promote/demote of each unpromoted array), comparing its cached
    objective against the oracle after each commit and its
    {!Mhla_core.Engine.feasible} answer against the from-scratch
    occupancy check before each one. [objective] defaults to
    [Energy_delay]. The first half of the ["engine"] check. *)

type outcome = {
  seed : int64;
  profile : Generate.profile;  (** resolved, never [Mixed] *)
  program : Mhla_ir.Program.t;
  onchip_bytes : int;
  failures : failure list;
}

val run_case :
  ?mutate:mutation ->
  profile:Generate.profile ->
  seed:int64 ->
  unit ->
  outcome
(** {!Generate.case}, then the whole battery on its program under the
    case's budget. Deterministic; never raises. *)

val shrink_counterexample :
  ?mutate:mutation ->
  profile:Generate.profile ->
  failing:string list ->
  Mhla_ir.Program.t ->
  Mhla_ir.Program.t
(** Shrink a failing program with {!Shrink.run}, keeping a candidate
    only while at least one of the originally [failing] check names
    still fails under {!Generate.budget_for} of [profile] — so the
    minimum reproduces the same class of bug, not a different one.
    Deterministic: the same outcome shrinks to the byte-identical
    minimum. *)
