(** Racing a field of policies and keeping the best finisher.

    Every entrant runs the full {!Mhla_core.Explore.run} flow on the
    same program/platform/config — only the policy differs — over a
    {!Mhla_util.Domain_pool}, so a multi-core host pays roughly the
    wall-clock of the slowest entrant for the objective of the best
    one. The winner is deterministic for every [jobs] value: the pool
    returns results in entrant order, and ties on the objective go to
    the earliest entrant (which is why {!Registry.default_portfolio}
    leads with greedy — the winner can never be worse than the
    default pipeline). A raising entrant flips the pool's cancellation
    flag, so unstarted entrants are skipped rather than run to
    completion. *)

type entry = {
  policy : Policy.t;
  result : Mhla_core.Explore.result;
  objective : float;
      (** [Cost.scalar config.objective result.after_te] — what the
          race is judged on *)
  verify : Mhla_analysis.Verify.report option;
      (** under [verify_live], the entrant's (passing) check of its
          result; [None] otherwise *)
}

type outcome = { winner : entry; entrants : entry list (** entrant order *) }

val race :
  ?config:Mhla_core.Assign.config ->
  ?jobs:int ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?reuse:Mhla_core.Mapping.reuse ->
  ?checkpoint:(unit -> unit) ->
  ?verify_live:bool ->
  ?suppress:Mhla_analysis.Suppress.t ->
  policies:Policy.t list ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  outcome
(** [jobs] defaults to {!Mhla_util.Domain_pool.recommended_jobs}; the
    reuse precompute is shared across entrants (computed here when not
    supplied). [telemetry] gives each worker domain a child sink (a
    [portfolio.entrant] span per policy, merged deterministically) and
    records the winner as a [portfolio.winner] instant.
    [verify_live] (default [false]) checks each entrant's result with
    {!Mhla_analysis.Verify.check_result} once its search is done and
    keeps the report in the entry's [verify] (so the winner carries
    its own); the race and {!to_json} are bit-identical either way.
    [suppress] filters those findings.
    @raise Mhla_util.Error.Error ([Invalid_input]) on an empty field;
    ([Internal]) when a live-verified entrant's output fails
    verification. *)

val to_json : id:string -> outcome -> Mhla_util.Json.t
(** The wire/report shape: winner name and objective, the per-entrant
    scoreboard, and the winner's full {!Mhla_core.Report.result_to_json}
    under ["result"]. *)
