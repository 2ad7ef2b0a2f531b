module Error = Mhla_util.Error
module Json = Mhla_util.Json
module Stats = Mhla_util.Stats
module Table = Mhla_util.Table
module Telemetry = Mhla_obs.Telemetry

type plan_robustness = {
  check_id : string;
  params : Pipeline.params;
  fault_free : Pipeline.outcome;
  slack_margin_cycles : int;
  zero_fault_consistent : bool;
  worst_stall_cycles : int;
  mean_stall_cycles : float;
  worst_inflation : float;
  mean_inflation : float;
  total_retries : int;
  total_fallbacks : int;
  total_failed_attempts : int;
}

type report = {
  faults : Faults.t;
  trials : int;
  plans : plan_robustness list;
  all_zero_fault_consistent : bool;
}

let trial_faults (f : Faults.t) ~trial =
  if trial = 0 then f
  else
    {
      f with
      Faults.seed =
        Int64.add f.Faults.seed
          (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int trial));
    }

let plan_of_check telemetry trials faults (c : Crosscheck.bt_check) =
  Telemetry.span telemetry ~cat:"sim" "robustness.stream"
    ~args:(fun () ->
      [ ("transfer", Telemetry.Str c.Crosscheck.check_id);
        ("trials", Telemetry.Int trials) ])
  @@ fun () ->
  let stalls =
    (* Per-transfer events over [trials * issues] attempts would swamp
       a trace: the trials run silent and each contributes one summary
       event instead. *)
    List.init trials (fun trial ->
        let f = trial_faults faults ~trial in
        let t = Pipeline.run_faulty f c.Crosscheck.params in
        Telemetry.instant telemetry ~cat:"sim" "robustness.trial"
          ~args:(fun () ->
            [ ("transfer", Telemetry.Str c.Crosscheck.check_id);
              ("trial", Telemetry.Int trial);
              ("stall_cycles",
               Telemetry.Int t.Pipeline.fault_result.Pipeline.stall_cycles);
              ("retries", Telemetry.Int t.Pipeline.retries);
              ("fallbacks", Telemetry.Int t.Pipeline.fallbacks);
              ("failed_attempts", Telemetry.Int t.Pipeline.failed_attempts) ]);
        t)
  in
  let stall_of (t : Pipeline.fault_outcome) =
    t.Pipeline.fault_result.Pipeline.stall_cycles
  in
  let baseline_stall =
    max 1 c.Crosscheck.simulated.Pipeline.stall_cycles
  in
  let worst = List.fold_left (fun m t -> max m (stall_of t)) 0 stalls in
  let mean =
    Stats.mean (List.map (fun t -> float_of_int (stall_of t)) stalls)
  in
  let sum f = List.fold_left (fun a t -> a + f t) 0 stalls in
  {
    check_id = c.Crosscheck.check_id;
    params = c.Crosscheck.params;
    fault_free = c.Crosscheck.simulated;
    slack_margin_cycles =
      c.Crosscheck.cold_start_bound
      - abs
          (c.Crosscheck.simulated.Pipeline.stall_cycles
          - c.Crosscheck.analytic_stall_cycles);
    zero_fault_consistent = c.Crosscheck.zero_fault_consistent;
    worst_stall_cycles = worst;
    mean_stall_cycles = mean;
    worst_inflation = float_of_int worst /. float_of_int baseline_stall;
    mean_inflation = mean /. float_of_int baseline_stall;
    total_retries = sum (fun t -> t.Pipeline.retries);
    total_fallbacks = sum (fun t -> t.Pipeline.fallbacks);
    total_failed_attempts = sum (fun t -> t.Pipeline.failed_attempts);
  }

let analyze ?(trials = 16) ?(telemetry = Telemetry.noop) ~faults m schedule =
  if trials < 1 then
    Error.invalidf ~context:"Robustness.analyze"
      "trials must be >= 1 (got %d)" trials;
  Faults.validate faults;
  Telemetry.span telemetry ~cat:"sim" "robustness.analyze"
    ~args:(fun () ->
      [ ("trials", Telemetry.Int trials);
        ("seed", Telemetry.Str (Int64.to_string faults.Faults.seed)) ])
  @@ fun () ->
  let checks = Crosscheck.pipeline_checks m schedule in
  let plans = List.map (plan_of_check telemetry trials faults) checks in
  {
    faults;
    trials;
    plans;
    all_zero_fault_consistent =
      List.for_all (fun p -> p.zero_fault_consistent) plans;
  }

let to_table r =
  let t =
    Table.create
      ~columns:
        [
          ("transfer", Table.Left);
          ("stall", Table.Right);
          ("slack", Table.Right);
          ("worst stall", Table.Right);
          ("mean stall", Table.Right);
          ("worst infl", Table.Right);
          ("retries", Table.Right);
          ("fallbacks", Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.check_id;
          Table.cell_int p.fault_free.Pipeline.stall_cycles;
          Table.cell_int p.slack_margin_cycles;
          Table.cell_int p.worst_stall_cycles;
          Table.cell_float ~decimals:1 p.mean_stall_cycles;
          Table.cell_float p.worst_inflation;
          Table.cell_int p.total_retries;
          Table.cell_int p.total_fallbacks;
        ])
    r.plans;
  t

let plan_to_json p =
  Json.obj
    [
      ("transfer", Json.str p.check_id);
      ("fault_free_stall_cycles",
       Json.int p.fault_free.Pipeline.stall_cycles);
      ("slack_margin_cycles", Json.int p.slack_margin_cycles);
      ("zero_fault_consistent", Json.bool p.zero_fault_consistent);
      ("worst_stall_cycles", Json.int p.worst_stall_cycles);
      ("mean_stall_cycles", Json.float p.mean_stall_cycles);
      ("worst_inflation", Json.float p.worst_inflation);
      ("mean_inflation", Json.float p.mean_inflation);
      ("retries", Json.int p.total_retries);
      ("fallbacks", Json.int p.total_fallbacks);
      ("failed_attempts", Json.int p.total_failed_attempts);
    ]

let to_json r =
  Json.obj
    [
      ("seed", Json.str (Int64.to_string r.faults.Faults.seed));
      ("trials", Json.int r.trials);
      ("all_zero_fault_consistent", Json.bool r.all_zero_fault_consistent);
      ("plans", Json.arr (List.map plan_to_json r.plans));
    ]

let pp ppf r =
  Fmt.pf ppf "@[<v>robustness over %d trials (%a):@,%s@]" r.trials Faults.pp
    r.faults
    (Table.render (to_table r))
