(** Differential validation of the analytic TE model against the two
    DMA simulators — the battery behind EXT-XVAL, EXT-ESIM, the
    integration tests and the ["xval"] and ["esim"] checks of
    [mhla fuzz].

    The pipeline check: for every block transfer the TE step planned,
    build the equivalent {!Pipeline.stream}, replay it once through
    {!Pipeline.run_faulty} under {!Faults.none} and compare simulated
    against analytic stalls. The analytic model is a steady-state
    approximation: it ignores the pipeline cold start (the first
    [lookahead+1] buffers cannot be hidden) and DMA channel
    serialisation, so per-stream agreement is required only up to
    [cold_start_bound]. The event check ({!check_event}) compares the
    time extensions' gain with the {!Event} simulator's. *)

type bt_check = {
  check_id : string;
  params : Pipeline.stream;
      (** the plan's stream: issues and bytes from the transfer,
          [transfer_cycles = bt_time], compute from the first loop the
          extension spans, lookahead = extra buffers, setup from the
          hierarchy's DMA engine (0 without one) — the same derivation
          {!check_event} and {!Robustness.analyze} replay *)
  channels : int;  (** the hierarchy's DMA channels (1 without DMA) *)
  simulated : Pipeline.outcome;
  analytic_stall_cycles : int;
  cold_start_bound : int;
      (** [(lookahead+1) * (transfer + setup)] slack allowed *)
  zero_fault_consistent : bool;
      (** the replay that measured [simulated] reported zero retries,
          fallbacks and failed attempts — the fault machinery adds
          nothing when no faults are configured *)
}

val within_bound : bt_check -> bool
(** [|simulated - analytic| <= cold_start_bound]. *)

val agrees : bt_check -> bool
(** {!within_bound} and [zero_fault_consistent]: a check failing
    either way is a disagreement. *)

val pipeline_checks :
  Mhla_core.Mapping.t -> Mhla_core.Prefetch.schedule -> bt_check list
(** One {!Pipeline} check per TE plan with at least one issue, on the
    hierarchy's DMA channel count (1 without a DMA engine). *)

val pp_check : bt_check Fmt.t

(** {2 Analytic vs discrete-event cross-validation (EXT-ESIM)}

    {!check_event} drives the {!Event} simulator with the same
    block-transfer streams the TE step planned and compares the time
    extensions' {e gain} — stall cycles removed relative to a
    lookahead-0 run — between the analytic model and the event
    simulation. Divergences are data, never asserts: the report
    carries them as structured records for the CLI, the service and
    the fuzz oracle to render or gate on. *)

type event_divergence = {
  divergence_id : string;  (** block-transfer id *)
  divergence_kind : [ `Gain_out_of_tolerance | `Neutral_drift ];
  divergence_analytic : int;
  divergence_event : int;
  divergence_tolerance : int;
  divergence_detail : string;  (** human-readable one-liner *)
}

type event_check = {
  event_check_id : string;
  stream : Pipeline.stream;  (** the plan, as a simulator stream *)
  event_config : Event.config;
      (** per-region waitstates installed from the plan's own
          source/destination layers *)
  analytic_gain_cycles : int;
      (** [analytic_stall (lookahead=0) - analytic_stall (lookahead=k)]
          on the flattened single-stream shape *)
  schedule_gain_cycles : int;
      (** [issues * hidden_cycles] — the schedule's own claim, which
          may differ from [analytic_gain_cycles] when the extension
          spans loops of unequal iteration cost *)
  event_gain_cycles : int;
      (** [baseline.stall_cycles - extended.stall_cycles]: the stall
          cycles the time extension removed, as {!Event.run} measures
          them under the config *)
  gain_tolerance_cycles : int;
      (** [(lookahead + 2) * (transfer + setup)]: the sum of the two
          legs' cold-start bounds — see doc/MODEL.md for the argument *)
  extended_outcome : Event.outcome;
  baseline_outcome : Event.outcome;  (** the lookahead-0 leg *)
  neutral_consistent : bool;
      (** {!Event.run} under {!Event.neutral} was cycle-identical to
          {!Pipeline.run} on both legs *)
}

val event_agrees : event_check -> bool
(** [|event_gain - analytic_gain| <= gain_tolerance_cycles] and
    [neutral_consistent]. *)

type event_report = {
  event_checks : event_check list;
  event_divergences : event_divergence list;  (** empty = agreement *)
}

val check_event :
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?config:Event.config ->
  Mhla_core.Mapping.t ->
  Mhla_core.Prefetch.schedule ->
  event_report
(** One check per TE plan with at least one issue and a non-empty
    payload. [config] (default {!Event.of_hierarchy} of the mapping's
    hierarchy) sets channels, queue depth, arbitration, bus sharing
    and invalidation; its waitstate table is replaced per plan by the
    block transfer's own: first-access penalty = source-layer latency,
    one cycle per beat of the narrowest on-path bandwidth — the
    decomposition of [Cost.bt_cycles_per_issue], so the event latency
    equals [bt_time]. *)

val event_report_to_json : event_report -> Mhla_util.Json.t
(** [{"checks": [...], "divergences": [...], "agreement": bool}] — the
    payload [mhla simulate --json] and the service's simulate mode
    emit. *)

val pp_event_check : event_check Fmt.t
val pp_event_divergence : event_divergence Fmt.t
