module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Engine = Mhla_core.Engine
module Mapping = Mhla_core.Mapping
module Prefetch = Mhla_core.Prefetch

type bt_check = {
  check_id : string;
  params : Pipeline.params;
  simulated : Pipeline.outcome;
  analytic_stall_cycles : int;
  cold_start_bound : int;
  zero_fault_consistent : bool;
}

let within_bound c =
  abs (c.simulated.Pipeline.stall_cycles - c.analytic_stall_cycles)
  <= c.cold_start_bound

let agrees c = within_bound c && c.zero_fault_consistent

type engine_check = {
  engine_objective : float;
  oracle_objective : float;
  feasibility_mismatches : int;
  engine_consistent : bool;
}

(* Churn an incremental engine through a round trip of every placement
   and every array promotion, bit-comparing its cached objective
   against the from-scratch oracle after each commit, and its
   incremental feasibility answer against [Mapping.occupancy_ok] before
   each one. Any drift in the dirty-tracking (a contribution not
   invalidated, a fold order that diverged, a layer profile out of
   step) surfaces as a mismatch. Pushing each unpromoted array
   on-chip in turn crosses infeasible positions, so both answers are
   exercised. *)
let check_engine ?(objective = Cost.Energy_delay) (m : Mapping.t) =
  let e = Engine.create ~objective m in
  let consistent = ref true in
  let mismatches = ref 0 in
  let agree () =
    let engine_v = Engine.objective_value e in
    let oracle_v = Cost.scalar objective (Cost.evaluate (Engine.mapping e)) in
    if not (Float.equal engine_v oracle_v) then consistent := false
  in
  agree ();
  let commit move =
    if
      Engine.feasible e move
      <> Mapping.occupancy_ok (Assign.apply_move (Engine.mapping e) move)
    then incr mismatches;
    Engine.commit e move;
    agree ()
  in
  List.iter
    (fun (ref_, placement) ->
      if placement <> Mapping.Direct then begin
        commit (Engine.Set_placement (ref_, Mapping.Direct));
        commit (Engine.Set_placement (ref_, placement))
      end)
    m.Mapping.placements;
  let on_chip = Mhla_arch.Hierarchy.on_chip_levels m.Mapping.hierarchy in
  List.iter
    (fun (array, level) ->
      commit (Engine.Set_array (array, None));
      commit (Engine.Set_array (array, Some level)))
    m.Mapping.array_layers;
  (match on_chip with
  | first :: _ ->
    (* Also push every unpromoted array on-chip and back: exercises
       the promoted fill/drain cache from a cold start. *)
    List.iter
      (fun array ->
        if List.assoc_opt array m.Mapping.array_layers = None then begin
          commit (Engine.Set_array (array, Some first));
          commit (Engine.Set_array (array, None))
        end)
      (Mhla_ir.Program.array_names m.Mapping.program)
  | [] -> ());
  {
    engine_objective = Engine.objective_value e;
    oracle_objective = Cost.scalar objective (Cost.evaluate (Engine.mapping e));
    feasibility_mismatches = !mismatches;
    engine_consistent = !consistent && !mismatches = 0;
  }

type analysis_check = {
  analysis_errors : Mhla_analysis.Diagnostic.t list;
  analysis_clean : bool;
}

let check_analysis ?policy (m : Mapping.t) schedule =
  let subject = Mhla_analysis.Pass.of_mapping ~schedule ?policy m in
  let report = Mhla_analysis.Verify.run subject in
  let analysis_errors = Mhla_analysis.Verify.errors report in
  { analysis_errors; analysis_clean = analysis_errors = [] }

type interp_check = {
  dynamic_events : int;
  static_events : int;
  interp_mismatches : (string * int * int) list;
  interp_consistent : bool;
}

(* Execute the program for real and compare the event counts against
   every level of the static model: the whole-program total, each
   statement's [executions * accesses] and each array's
   [total_accesses], then each reuse-analysis info's [executions] (the
   quantity every candidate's [accesses_served] equals, i.e. the reuse
   counts the mapping's block-transfer arithmetic is built on). *)
let check_interp (m : Mapping.t) =
  let program = m.Mapping.program in
  let dynamic_events = Mhla_trace.Interp.count_events program in
  let static_events = Mhla_ir.Program.total_access_count program in
  let by_stmt = Mhla_trace.Interp.count_by_stmt program in
  let by_array = Mhla_trace.Interp.count_by_array program in
  let dyn assoc key = Option.value ~default:0 (List.assoc_opt key assoc) in
  let mismatches = ref [] in
  let expect subject ~dynamic ~predicted =
    if dynamic <> predicted then
      mismatches := (subject, dynamic, predicted) :: !mismatches
  in
  expect "total" ~dynamic:dynamic_events ~predicted:static_events;
  List.iter
    (fun (ctx : Mhla_ir.Program.context) ->
      let s = ctx.Mhla_ir.Program.stmt in
      expect
        ("stmt:" ^ s.Mhla_ir.Stmt.name)
        ~dynamic:(dyn by_stmt s.Mhla_ir.Stmt.name)
        ~predicted:
          (Mhla_ir.Program.executions ctx
          * List.length s.Mhla_ir.Stmt.accesses))
    (Mhla_ir.Program.contexts program);
  List.iter
    (fun array ->
      expect ("array:" ^ array) ~dynamic:(dyn by_array array)
        ~predicted:(Mhla_ir.Program.total_accesses program ~array))
    (Mhla_ir.Program.array_names program);
  List.iter
    (fun (info : Mhla_reuse.Analysis.info) ->
      let stmt = info.Mhla_reuse.Analysis.ref_.Mhla_reuse.Analysis.stmt in
      let accesses =
        match Mhla_ir.Program.find_context program ~stmt with
        | Some ctx ->
          List.length ctx.Mhla_ir.Program.stmt.Mhla_ir.Stmt.accesses
        | None -> 0
      in
      expect
        (Fmt.str "access:%a" Mhla_reuse.Analysis.pp_access_ref
           info.Mhla_reuse.Analysis.ref_)
        ~dynamic:(if accesses = 0 then 0 else dyn by_stmt stmt / accesses)
        ~predicted:info.Mhla_reuse.Analysis.executions)
    m.Mapping.infos;
  let interp_mismatches = List.rev !mismatches in
  {
    dynamic_events;
    static_events;
    interp_mismatches;
    interp_consistent = interp_mismatches = [];
  }

type report = {
  checks : bt_check list;
  disagreements : bt_check list;
  engine : engine_check;
  analysis : analysis_check;
}

(* The one derivation of a TE plan's block-transfer stream, shared by
   the analytic pipeline check, the event check and the robustness
   report: setup from the hierarchy's DMA engine, compute from the
   innermost loop the extension spans, lookahead from the plan's extra
   buffers. *)
let stream_of_plan (m : Mapping.t) (plan : Prefetch.plan) =
  let bt = plan.Prefetch.bt in
  let setup_cycles =
    if Mhla_arch.Hierarchy.has_dma m.Mapping.hierarchy then
      (Mhla_arch.Hierarchy.dma_exn m.Mapping.hierarchy).Mhla_arch.Dma
        .setup_cycles
    else 0
  in
  let compute_cycles =
    match plan.Prefetch.freedom with
    | iter :: _ -> Cost.loop_iteration_cycles m ~iter
    | [] -> 0
  in
  {
    Event.issues = bt.Mapping.issues;
    bytes_per_issue = bt.Mapping.bytes_per_issue;
    transfer_cycles = plan.Prefetch.bt_time;
    compute_cycles;
    lookahead = plan.Prefetch.extra_buffers;
    setup_cycles;
  }

let pipeline_params ~channels (s : Event.stream) =
  {
    Pipeline.issues = s.Event.issues;
    transfer_cycles = s.Event.transfer_cycles;
    compute_cycles = s.Event.compute_cycles;
    lookahead = s.Event.lookahead;
    setup_cycles = s.Event.setup_cycles;
    channels;
  }

let check_of_plan (m : Mapping.t) (plan : Prefetch.plan) =
  let channels = (Event.of_hierarchy m.Mapping.hierarchy).Event.channels in
  let params = pipeline_params ~channels (stream_of_plan m plan) in
  let simulated = Pipeline.run params in
  let faultless = Pipeline.run_faulty Faults.none params in
  {
    check_id = plan.Prefetch.bt.Mapping.bt_id;
    params;
    simulated;
    analytic_stall_cycles = Pipeline.analytic_stall params;
    cold_start_bound =
      (params.Pipeline.lookahead + 1)
      * (params.Pipeline.transfer_cycles + params.Pipeline.setup_cycles);
    zero_fault_consistent =
      faultless.Pipeline.fault_result = simulated
      && faultless.Pipeline.retries = 0
      && faultless.Pipeline.fallbacks = 0
      && faultless.Pipeline.failed_attempts = 0;
  }

let pipeline_checks m (schedule : Prefetch.schedule) =
  List.filter_map
    (fun (p : Prefetch.plan) ->
      if p.Prefetch.bt.Mapping.issues > 0 then Some (check_of_plan m p)
      else None)
    schedule.Prefetch.plans

let crosscheck ?objective m schedule =
  let checks = pipeline_checks m schedule in
  {
    checks;
    disagreements = List.filter (fun c -> not (agrees c)) checks;
    engine = check_engine ?objective m;
    analysis = check_analysis m schedule;
  }

let pp_check ppf c =
  Fmt.pf ppf "%s: simulated stall %d, analytic %d (bound %d)%s %s" c.check_id
    c.simulated.Pipeline.stall_cycles c.analytic_stall_cycles
    c.cold_start_bound
    (if c.zero_fault_consistent then "" else ", zero-fault drift")
    (if agrees c then "OK" else "DISAGREE")

(* --- analytic vs discrete-event cross-validation (EXT-ESIM) ------------ *)

module Json = Mhla_util.Json

type event_divergence = {
  divergence_id : string;
  divergence_kind : [ `Gain_out_of_tolerance | `Neutral_drift ];
  divergence_analytic : int;
  divergence_event : int;
  divergence_tolerance : int;
  divergence_detail : string;
}

type event_check = {
  event_check_id : string;
  stream : Event.stream;
  event_config : Event.config;
  analytic_gain_cycles : int;
  schedule_gain_cycles : int;
  event_gain_cycles : int;
  gain_tolerance_cycles : int;
  extended_outcome : Event.outcome;
  baseline_outcome : Event.outcome;
  neutral_consistent : bool;
}

let event_within_tolerance c =
  abs (c.event_gain_cycles - c.analytic_gain_cycles)
  <= c.gain_tolerance_cycles

let event_agrees c = event_within_tolerance c && c.neutral_consistent

(* Per-region waitstate table of one block transfer, from the arch
   preset's layers: first-access penalty = the source layer's latency,
   then one cycle per beat of the narrowest on-path bandwidth — the
   exact decomposition of [Cost.bt_cycles_per_issue], so the event
   simulator's transfer latency equals the plan's [bt_time]. *)
let waitstates_of_bt (m : Mapping.t) (bt : Mapping.block_transfer) =
  let src = Mhla_arch.Hierarchy.layer m.Mapping.hierarchy bt.Mapping.src_layer in
  let dst = Mhla_arch.Hierarchy.layer m.Mapping.hierarchy bt.Mapping.dst_layer in
  {
    Event.first_cycles = src.Mhla_arch.Layer.latency_cycles;
    seq_cycles = 1;
    beat_bytes =
      min src.Mhla_arch.Layer.bandwidth_bytes_per_cycle
        dst.Mhla_arch.Layer.bandwidth_bytes_per_cycle;
  }

(* Why [(lookahead + 2) * (transfer + setup)]: the analytic gain is the
   difference of two steady-state stall figures, and each leg of the
   event simulation is within its own cold-start bound of the analytic
   stall — [(k+1)*(T+S)] for the extended leg, [(0+1)*(T+S)] for the
   lookahead-0 baseline. Their difference can therefore drift by at
   most the sum of the two bounds. doc/MODEL.md carries the full
   argument. *)
let gain_tolerance (s : Event.stream) =
  (s.Event.lookahead + 2) * (s.Event.transfer_cycles + s.Event.setup_cycles)

let check_event_plan ?telemetry ?(config : Event.config option)
    (m : Mapping.t) (plan : Prefetch.plan) =
  let bt = plan.Prefetch.bt in
  let stream = stream_of_plan m plan in
  let event_config =
    match config with
    | Some c -> { c with Event.waitstates = Some (waitstates_of_bt m bt) }
    | None ->
      {
        (Event.of_hierarchy m.Mapping.hierarchy) with
        Event.waitstates = Some (waitstates_of_bt m bt);
      }
  in
  let extended_outcome = Event.run ?telemetry event_config stream in
  let baseline_outcome =
    Event.run ?telemetry event_config { stream with Event.lookahead = 0 }
  in
  let event_gain_cycles =
    baseline_outcome.Event.stall_cycles - extended_outcome.Event.stall_cycles
  in
  let params k =
    pipeline_params ~channels:event_config.Event.channels
      { stream with Event.lookahead = k }
  in
  let analytic_gain_cycles =
    Pipeline.analytic_stall (params 0)
    - Pipeline.analytic_stall (params stream.Event.lookahead)
  in
  (* The event engine under the neutral configuration must reproduce
     the analytic replay cycle for cycle — on both legs. *)
  let neutral = Event.neutral ~channels:event_config.Event.channels in
  let neutral_leg k =
    let o = Event.run ?telemetry neutral { stream with Event.lookahead = k } in
    let p = Pipeline.run (params k) in
    o.Event.total_cycles = p.Pipeline.total_cycles
    && o.Event.stall_cycles = p.Pipeline.stall_cycles
    && o.Event.dma_busy_cycles = p.Pipeline.dma_busy_cycles
  in
  {
    event_check_id = bt.Mapping.bt_id;
    stream;
    event_config;
    analytic_gain_cycles;
    schedule_gain_cycles = bt.Mapping.issues * plan.Prefetch.hidden_cycles;
    event_gain_cycles;
    gain_tolerance_cycles = gain_tolerance stream;
    extended_outcome;
    baseline_outcome;
    neutral_consistent =
      neutral_leg stream.Event.lookahead && neutral_leg 0;
  }

type event_report = {
  event_checks : event_check list;
  event_divergences : event_divergence list;
}

let divergences_of_check c =
  let out = ref [] in
  if not (event_within_tolerance c) then
    out :=
      {
        divergence_id = c.event_check_id;
        divergence_kind = `Gain_out_of_tolerance;
        divergence_analytic = c.analytic_gain_cycles;
        divergence_event = c.event_gain_cycles;
        divergence_tolerance = c.gain_tolerance_cycles;
        divergence_detail =
          Fmt.str
            "event-sim TE gain %d drifted from analytic gain %d by more \
             than the cold-start tolerance %d"
            c.event_gain_cycles c.analytic_gain_cycles
            c.gain_tolerance_cycles;
      }
      :: !out;
  if not c.neutral_consistent then
    out :=
      {
        divergence_id = c.event_check_id;
        divergence_kind = `Neutral_drift;
        divergence_analytic = c.analytic_gain_cycles;
        divergence_event = c.event_gain_cycles;
        divergence_tolerance = 0;
        divergence_detail =
          "neutral-configuration event simulation is not cycle-identical \
           to Pipeline.run";
      }
      :: !out;
  List.rev !out

let check_event ?telemetry ?config (m : Mapping.t)
    (schedule : Prefetch.schedule) =
  let event_checks =
    List.filter_map
      (fun (p : Prefetch.plan) ->
        if
          p.Prefetch.bt.Mapping.issues > 0
          && p.Prefetch.bt.Mapping.bytes_per_issue > 0
        then Some (check_event_plan ?telemetry ?config m p)
        else None)
      schedule.Prefetch.plans
  in
  {
    event_checks;
    event_divergences = List.concat_map divergences_of_check event_checks;
  }

let divergence_kind_name = function
  | `Gain_out_of_tolerance -> "gain-out-of-tolerance"
  | `Neutral_drift -> "neutral-drift"

let event_divergence_to_json d =
  Json.obj
    [ ("id", Json.str d.divergence_id);
      ("kind", Json.str (divergence_kind_name d.divergence_kind));
      ("analytic_gain_cycles", Json.int d.divergence_analytic);
      ("event_gain_cycles", Json.int d.divergence_event);
      ("tolerance_cycles", Json.int d.divergence_tolerance);
      ("detail", Json.str d.divergence_detail) ]

let event_check_to_json c =
  Json.obj
    [ ("id", Json.str c.event_check_id);
      ("issues", Json.int c.stream.Event.issues);
      ("bytes_per_issue", Json.int c.stream.Event.bytes_per_issue);
      ("transfer_cycles", Json.int c.stream.Event.transfer_cycles);
      ("compute_cycles", Json.int c.stream.Event.compute_cycles);
      ("lookahead", Json.int c.stream.Event.lookahead);
      ("channels", Json.int c.event_config.Event.channels);
      ("analytic_gain_cycles", Json.int c.analytic_gain_cycles);
      ("schedule_gain_cycles", Json.int c.schedule_gain_cycles);
      ("event_gain_cycles", Json.int c.event_gain_cycles);
      ("gain_tolerance_cycles", Json.int c.gain_tolerance_cycles);
      ("within_tolerance", Json.bool (event_within_tolerance c));
      ("neutral_consistent", Json.bool c.neutral_consistent);
      ("extended", Event.outcome_to_json c.extended_outcome);
      ("baseline", Event.outcome_to_json c.baseline_outcome) ]

let event_report_to_json r =
  Json.obj
    [ ("checks", Json.arr (List.map event_check_to_json r.event_checks));
      ("divergences",
       Json.arr (List.map event_divergence_to_json r.event_divergences));
      ("agreement", Json.bool (r.event_divergences = [])) ]

let pp_event_divergence ppf d =
  Fmt.pf ppf "%s: %s (analytic %d, event %d, tolerance %d)" d.divergence_id
    (divergence_kind_name d.divergence_kind)
    d.divergence_analytic d.divergence_event d.divergence_tolerance

let pp_event_check ppf c =
  Fmt.pf ppf
    "%s: analytic gain %d, event gain %d (tolerance %d)%s %s"
    c.event_check_id c.analytic_gain_cycles c.event_gain_cycles
    c.gain_tolerance_cycles
    (if c.neutral_consistent then "" else ", neutral drift")
    (if event_agrees c then "OK" else "DIVERGE")
