(** The fault-isolated solver executor.

    A {!t} owns a fixed pool of worker domains behind a bounded job
    queue. Callers {!submit} raw JSONL lines; workers parse, decode,
    verify (through the {!gate_passes}), solve, and record
    exactly one {!Response.t} per submission — every failure mode
    (malformed JSON, rejected program, blown deadline, injected crash)
    becomes a structured response, never an escaped exception and never
    a lost request.

    Backpressure: when the queue holds [queue_depth] jobs, {!submit}
    either blocks until a worker frees a slot ([Block], the batch
    default) or answers immediately with a [shed]/[backpressure]
    response ([Shed], for daemons that must stay responsive).

    Deadlines are measured from submission, so time spent queued
    counts. The solver is checkpointed between search steps (see
    {!Mhla_core.Assign.greedy}); a blown deadline surfaces as a
    [timeout] response, and an ok response is bit-identical to
    {!run_job} on the same request — the checkpoint never perturbs
    the search.

    Each request runs reuse analysis ({!Mhla_core.Mapping.precompute})
    once and shares it with every solve it makes: a portfolio's
    entrants, a grid's points. Nothing is kept across requests, so a
    long-running service holds no per-program state. *)

val gate_passes : string list
(** The verifier passes a program must pass before it is solved:
    [bounds] alone. The gate checks the bare program, with no mapping
    and no TE schedule, and on such a subject [bounds] is the only pass
    that can emit an [Error]: [capacity], [dma-race] and [interference]
    need a solver output and emit nothing without one, and the other
    passes emit only warnings and notes, which the gate would drop. *)

(** Admission policy once the queue is full. *)
type admission = Block | Shed

type config = {
  jobs : int;  (** worker domains *)
  queue_depth : int;  (** bounded-queue capacity *)
  default_deadline_ms : int option;
      (** applied to requests that carry no [deadline_ms] *)
  admission : admission;
  max_request_bytes : int;
      (** longer submissions are rejected ([oversized]) before parse *)
  telemetry : Mhla_obs.Telemetry.t;
  verify_live : bool;
      (** check every [Solve] request's solution (mapping + TE
          schedule), and every [Portfolio] entrant's, with the full
          verifier before emitting it: a failing solve becomes a
          [verify]-coded error response (a failing entrant an
          [internal] one), a passing answer carries its report (a
          race's: the winner's) in the response's [verify] field.
          Never changes the [result] payload. *)
  suppress : Mhla_analysis.Suppress.t;
      (** suppression rules applied to both the pre-solve program
          verification and the live verification *)
}

val default_config : config
(** 1 worker, depth 16, no default deadline, [Block], 1 MiB cap, noop
    telemetry, no live verification, no suppressions. *)

type t

val create : ?config:config -> unit -> t
(** Spawns the worker domains immediately.
    @raise Mhla_util.Error.Error ([Invalid_input]) on non-positive
    [jobs] or [queue_depth], or a negative [default_deadline_ms]. *)

val submit : t -> string -> [ `Queued | `Shed ]
(** Enqueue one raw request line. [`Shed] only under the [Shed]
    admission policy; the shed response is already recorded when it
    returns.
    @raise Mhla_util.Error.Error ([Invalid_input]) after {!shutdown}. *)

val ready : t -> Response.t list
(** The completed in-order prefix not yet handed out, possibly empty;
    never blocks. Responses are emitted exactly once, in submission
    order. *)

val drain : t -> Response.t list
(** Block until every submitted request has answered, then return all
    responses not yet handed out (in submission order). *)

(** {2 Waiting}

    A worker's wait for a job and {!drain}'s wait for the answers first
    spin for up to {!spin_budget_ns}, polling lock-free counters (jobs
    queued, responses completed, shut down) with [Domain.cpu_relax]
    between polls, so the spinning domain still joins stop-the-world
    collections. A one-request round trip then costs about 4 µs
    instead of the two futex wake-ups (about 18 µs) of parking at
    once. Only then does the waiter park on its condition variable,
    which re-checks the same state under the lock, so no wake-up is
    lost whatever the spin saw. A [Block]ed {!submit} parks at once:
    its slot frees only when a worker finishes a whole job.

    A service spins only when each of its domains, the [jobs] workers
    and one client, can have a CPU of its own
    ([jobs < Domain.recommended_domain_count ()]); otherwise it parks
    at once, as a spinner would hold a CPU that the domain it waits
    for needs.

    The CPU this costs: each domain spins at most one budget each time
    a wait starts. An idle service is parked: its workers stop
    spinning one budget after the last job, a client one budget after
    it starts waiting on a request that takes longer. *)

val spin_budget_ns : int
(** 200 µs: long enough to cover a submit/drain handoff and a small
    request's solve, short against anything that has to park anyway. *)

val shutdown : t -> unit
(** {!drain} leftovers are kept; waits for workers to exit, joins
    them, and merges their telemetry children into the parent sink in
    worker order. Idempotent. *)

type summary = {
  submitted : int;
  ok : int;
  errors : int;
  timeouts : int;
  shed : int;
  p50_ms : float;  (** submit-to-answer latency percentiles *)
  p99_ms : float;
}

val summary : t -> summary
(** Running totals over every response recorded so far (handed out or
    not). *)

val summary_to_json : summary -> Mhla_util.Json.t

val pp_summary : summary Fmt.t
(** One line: counts then latency percentiles. *)

(** {2 The job path}

    {!run_job} runs any {!Request.t} end to end and {!render} turns
    its outcome into an ok response's fields. A worker runs exactly
    this on each decoded request; the soak harness replays through it;
    every [mhla] subcommand that solves builds a request from its flags
    and calls it. So the CLI and the service agree by construction. *)

val solve_config : Request.t -> Mhla_core.Assign.config
(** {!Mhla_core.Assign.default_config} under the request's objective
    and transfer mode: the config every job of the request solves
    under. *)

val solve :
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?reuse:Mhla_core.Mapping.reuse ->
  ?checkpoint:(unit -> unit) ->
  Request.t ->
  Mhla_core.Explore.result
(** {!Mhla_core.Explore.run} on the request's hierarchy under its
    knobs, or {!Mhla_policy.Policy.run} when it names a policy. *)

val ok_payload : Request.t -> Mhla_core.Explore.result -> Mhla_util.Json.t
(** {!Mhla_core.Report.result_to_json} under the request id: the
    [result] field of an ok [Solve] response. *)

val solve_pareto :
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?reuse:Mhla_core.Mapping.reuse ->
  ?checkpoint:(unit -> unit) ->
  ?jobs:int ->
  Request.t ->
  axes:int list list ->
  Mhla_core.Explore.pareto_outcome
(** {!Mhla_core.Explore.pareto} over the grid on [jobs] domains
    (default 1). Expiry of [checkpoint] mid-grid returns the frontier
    so far with [partial = true]; only expiry before the first point
    raises. *)

type outcome =
  | Solved of {
      result : Mhla_core.Explore.result;
      verify : Mhla_analysis.Verify.report option;  (** under [live] *)
      robustness : Mhla_sim.Robustness.report option;
          (** the fault rider's trials *)
    }
  | Frontier of Mhla_core.Explore.pareto_outcome
  | Raced of Mhla_policy.Portfolio.outcome
  | Simulated of {
      result : Mhla_core.Explore.result;
      report : Mhla_sim.Crosscheck.event_report;
    }

val run_job :
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?reuse:Mhla_core.Mapping.reuse ->
  ?checkpoint:(unit -> unit) ->
  ?jobs:int ->
  ?live:Mhla_analysis.Suppress.t ->
  ?arbitration:Mhla_sim.Event.arbitration ->
  ?shared_bus:bool ->
  ?invalidate_on_miss:bool ->
  Request.t ->
  outcome
(** One request, by kind: {!solve} plus the fault rider's
    {!Mhla_sim.Robustness.analyze}, {!solve_pareto},
    {!Mhla_policy.Portfolio.race}, or {!solve} replayed on
    {!Mhla_sim.Crosscheck.check_event}. Beside the request come only
    what the wire cannot spell:
    - [jobs]: domains a grid or a race fans out over (default
      {!Mhla_util.Domain_pool.recommended_jobs}; the pool passes 1);
    - [live]: verify the answer under these suppressions
      ({!Mhla_analysis.Verify.check_result}). A [Solve] returns the
      report in [verify]; a [Portfolio] raises ([Internal]) on a
      failing entrant and returns each entrant's passing report in its
      entry's [verify] (see {!live_report}). The outcome is otherwise
      unchanged;
    - [arbitration], [shared_bus], [invalidate_on_miss]: for
      {!Mhla_sim.Event.of_hierarchy} on a [Simulate] job.

    @raise Mhla_util.Error.Error ([Deadline]) when [checkpoint] fires. *)

val live_report : outcome -> Mhla_analysis.Verify.report option
(** The [live] report of an outcome: a [Solved]'s [verify], or a
    [Raced] winner's; [None] without [live] and for the other kinds.
    {!run_request} answers it in the response's [verify] field. *)

val render : Request.t -> outcome -> Mhla_util.Json.t * Mhla_util.Json.t option
(** The [result] and [robustness] fields of the ok response. *)
