(** EXT-FAULT: robustness of a TE schedule under injected DMA faults.

    The TE step plans prefetches assuming nominal transfer latency. This
    report measures how much headroom each planned stream really has:
    the fault-free slack against the analytic bound, and — across [N]
    independently seeded trials of {!Pipeline.run_faulty} — the worst
    and expected stall inflation plus the retry/fallback activity the
    degradation machinery absorbed. A plan whose worst-case inflation
    stays small keeps its real-time promises even on a noisy bus. *)

type plan_robustness = {
  check_id : string;  (** the block transfer's id *)
  fault_free : Pipeline.outcome;  (** {!Pipeline.run} baseline *)
  slack_margin_cycles : int;
      (** [cold_start_bound - |simulated - analytic|]: how far inside
          the tolerated envelope the fault-free stream sits; negative
          means the analytic model already disagrees *)
  zero_fault_consistent : bool;
      (** the fault-free replay reported zero retries, fallbacks and
          failed attempts ({!Crosscheck.bt_check}) *)
  worst_stall_cycles : int;  (** max stall over the trials *)
  mean_stall_cycles : float;  (** mean stall over the trials *)
  worst_inflation : float;
      (** [worst_stall / max 1 fault_free.stall_cycles] *)
  mean_inflation : float;
  total_retries : int;  (** summed over the trials *)
  total_fallbacks : int;
  total_failed_attempts : int;
}

type report = {
  faults : Faults.t;
      (** base model; trial [i > 0] reseeds it (trial [0] keeps the
          base seed), so a report is reproducible from
          [(faults, trials)] alone *)
  trials : int;
  plans : plan_robustness list;
  all_zero_fault_consistent : bool;
}

val analyze :
  ?trials:int ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  faults:Faults.t ->
  Mhla_core.Mapping.t ->
  Mhla_core.Prefetch.schedule ->
  report
(** One entry per {!Crosscheck.pipeline_checks} stream (every TE plan
    with at least one issue), each run [trials] times (default 16)
    under the reseeded fault model.

    [telemetry] (default noop) records a [robustness.analyze] span, one
    [robustness.stream] span per transfer and one [robustness.trial]
    summary event per trial (stall, retries, fallbacks). The trials
    themselves run with telemetry off — per-attempt events over
    [trials * issues] attempts would swamp a trace.
    @raise Mhla_util.Error.Error if [trials < 1] or the fault model is
    invalid. *)

val to_table : report -> Mhla_util.Table.t
(** Per-plan table: slack, worst/mean inflation, retries, fallbacks. *)

val to_json : report -> Mhla_util.Json.t

val pp : report Fmt.t
