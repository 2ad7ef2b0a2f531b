(** Differential validation of the analytic models — the battery
    behind EXT-XVAL, the integration tests and [mhla fuzz].

    Four independent check families, bundled by {!crosscheck}:
    event-driven pipeline vs analytic stalls (the original EXT-XVAL
    check), the incremental {!Mhla_core.Engine} vs from-scratch
    [Cost.evaluate] ({!check_engine}), the trace interpreter's dynamic
    counts vs the static ones ({!check_interp}), and analysis-level
    invariants ({!check_analysis}).

    The pipeline check: for every block transfer the TE step planned,
    build the equivalent {!Pipeline} stream and compare simulated
    against analytic stalls. The analytic model is a steady-state
    approximation: it ignores the pipeline cold start (the first
    [lookahead+1] buffers cannot be hidden) and DMA channel
    serialisation, so per-stream agreement is required only up to
    [cold_start_bound]. *)

type bt_check = {
  check_id : string;
  params : Pipeline.params;
  simulated : Pipeline.outcome;
  analytic_stall_cycles : int;
  cold_start_bound : int;
      (** [(lookahead+1) * (transfer + setup)] slack allowed *)
  zero_fault_consistent : bool;
      (** {!Pipeline.run_faulty} under {!Faults.none} reproduced
          [simulated] exactly, with zero retries/fallbacks — the fault
          machinery adds nothing when no faults are configured *)
}

val within_bound : bt_check -> bool
(** [|simulated - analytic| <= cold_start_bound]. *)

val agrees : bt_check -> bool
(** {!within_bound} and [zero_fault_consistent]; checks failing either
    way land in [disagreements]. *)

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
    occupancy check before each one. [objective]
    defaults to [Energy_delay]. Engine drift is reported as a
    disagreement in {!crosscheck}'s report alongside the zero-fault
    check. *)

type analysis_check = {
  analysis_errors : Mhla_analysis.Diagnostic.t list;
      (** [Error]-severity diagnostics from the full static-verifier
          pass suite (warnings and infos are not collected here) *)
  analysis_clean : bool;  (** [analysis_errors = []] *)
}

val check_analysis :
  ?policy:Mhla_lifetime.Occupancy.policy ->
  Mhla_core.Mapping.t ->
  Mhla_core.Prefetch.schedule ->
  analysis_check
(** Run every {!Mhla_analysis.Verify} pass over the solved mapping and
    its TE schedule. A fuzz-generated solver output that fails to
    verify clean is a solver bug — the static verifier doubles as a
    bug detector for {!Mhla_core.Assign} and {!Mhla_core.Prefetch}. *)

type interp_check = {
  dynamic_events : int;  (** events {!Mhla_trace.Interp.fold} produced *)
  static_events : int;  (** {!Mhla_ir.Program.total_access_count} *)
  interp_mismatches : (string * int * int) list;
      (** [(subject, dynamic, predicted)] for every disagreeing count;
          subjects are ["total"], ["stmt:NAME"], ["array:NAME"] and
          ["access:STMT/IDX"] *)
  interp_consistent : bool;  (** [interp_mismatches = []] *)
}

val check_interp : Mhla_core.Mapping.t -> interp_check
(** Execute the mapping's program with the {!Mhla_trace.Interp}
    reference interpreter and compare its event counts against the
    static model at every granularity: the program total, each
    statement's [executions * accesses], each array's
    [total_accesses], and each reuse-analysis access's [executions] —
    the per-access reuse count every candidate's [accesses_served]
    (and hence the mapping's block-transfer arithmetic) is built on.
    The differential fuzz gate ([mhla fuzz]) runs this on every
    generated program. *)

type report = {
  checks : bt_check list;
  disagreements : bt_check list;
  engine : engine_check;  (** incremental-vs-oracle cost drift *)
  analysis : analysis_check;  (** static verifier on the same outputs *)
}

val crosscheck :
  ?objective:Mhla_core.Cost.objective ->
  Mhla_core.Mapping.t ->
  Mhla_core.Prefetch.schedule ->
  report
(** {!pipeline_checks}, plus {!check_engine} on the mapping and
    {!check_analysis} on the mapping/schedule pair. *)

val stream_of_plan :
  Mhla_core.Mapping.t -> Mhla_core.Prefetch.plan -> Event.stream
(** The block-transfer stream of one TE plan — the single derivation
    behind every check here and {!Robustness.analyze}: issues and bytes
    from the transfer, [transfer_cycles = bt_time], compute from the
    first loop the extension spans, lookahead = extra buffers, setup
    from the hierarchy's DMA engine (0 without one). *)

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
  stream : Event.stream;  (** the plan, as a simulator stream *)
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

val event_within_tolerance : event_check -> bool
(** [|event_gain - analytic_gain| <= gain_tolerance_cycles]. *)

val event_agrees : event_check -> bool
(** {!event_within_tolerance} and [neutral_consistent]. *)

val waitstates_of_bt :
  Mhla_core.Mapping.t -> Mhla_core.Mapping.block_transfer -> Event.waitstates
(** The per-region waitstate table of one block transfer: first-access
    penalty = source-layer latency, one cycle per beat of the
    narrowest on-path bandwidth — the decomposition of
    [Cost.bt_cycles_per_issue], so the event latency equals [bt_time]. *)

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
    and invalidation; its waitstate table is replaced per plan by
    {!waitstates_of_bt}. *)

val event_check_to_json : event_check -> Mhla_util.Json.t
val event_divergence_to_json : event_divergence -> Mhla_util.Json.t

val event_report_to_json : event_report -> Mhla_util.Json.t
(** [{"checks": [...], "divergences": [...], "agreement": bool}] — the
    payload [mhla simulate --json] and the service's simulate mode
    emit. *)

val pp_event_check : event_check Fmt.t
val pp_event_divergence : event_divergence Fmt.t
