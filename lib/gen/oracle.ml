module Cost = Mhla_core.Cost
module Crosscheck = Mhla_sim.Crosscheck
module Engine = Mhla_core.Engine
module Explore = Mhla_core.Explore
module Faults = Mhla_sim.Faults
module Robustness = Mhla_sim.Robustness

type mutation = No_mutation | Drift_engine | Drift_interp | Drift_verify

let mutation_names =
  [ ("none", No_mutation); ("engine", Drift_engine); ("interp", Drift_interp);
    ("verify", Drift_verify) ]

type failure = { check : string; detail : string }

let check_names =
  [
    "json"; "engine"; "xval"; "esim"; "verifier-greedy"; "verifier-anneal";
    "interp"; "faults"; "pareto"; "policy"; "incremental-verify";
  ]

(* Kept low: the annealing leg runs once per fuzz case, and the CI gate
   runs 200 cases. The point is differential coverage of the annealing
   code path, not search quality. *)
let anneal_iterations = 300

let fault_model =
  Faults.make
    ~jitter:(Faults.Uniform { max_extra_cycles = 8 })
    ~failure_permille:20 ~max_retries:3 ~deadline_patience:5_000 ~seed:0x5EEDL
    ()

let failures ?(mutate = No_mutation) ~onchip_bytes program =
  try
    let hierarchy = Mhla_arch.Presets.two_level ~onchip_bytes () in
    let r = Explore.run program hierarchy in
    let m = r.Explore.assign.Mhla_core.Assign.mapping in
    let te = r.Explore.te in
    let fails = ref [] in
    let fail check detail = fails := { check; detail } :: !fails in
    (* The service wire format must carry any generated program
       unchanged: render → parse → decode → render is the identity. *)
    (let module Codec = Mhla_ir.Json_codec in
     let rendered = Mhla_util.Json.to_string (Codec.program_to_json program) in
     match Mhla_util.Json.parse rendered with
     | Error e ->
       fail "json"
         (Fmt.str "emitted program does not reparse: %s"
            (Mhla_util.Json.parse_error_to_string e))
     | Ok doc ->
       let back = Mhla_util.Json.to_string (Codec.program_to_json (Codec.program_of_json_exn doc)) in
       if not (String.equal rendered back) then
         fail "json" "program changed across a wire round trip");
    let report = Crosscheck.crosscheck m te in
    (let ec = report.Crosscheck.engine in
     if not ec.Crosscheck.engine_consistent then
       fail "engine"
         (Fmt.str
            "engine %.17g <> oracle %.17g after churn, %d feasibility \
             mismatch(es)"
            ec.Crosscheck.engine_objective ec.Crosscheck.oracle_objective
            ec.Crosscheck.feasibility_mismatches));
    (match mutate with
    | Drift_engine ->
      (* Seeded drift: shift the oracle by +1.0 so the differential
         must trip — the gate's self-test, not a real invariant. *)
      let objective = Cost.Energy_delay in
      let engine_v = Engine.objective_value (Engine.create ~objective m) in
      let drifted = Cost.scalar objective (Cost.evaluate m) +. 1.0 in
      if not (Float.equal engine_v drifted) then
        fail "engine"
          (Fmt.str "engine %.17g <> drifted oracle %.17g (seeded +1.0 drift)"
             engine_v drifted)
    | No_mutation | Drift_interp | Drift_verify -> ());
    List.iter
      (fun c ->
        fail "xval" (Fmt.str "%a" Crosscheck.pp_check c))
      report.Crosscheck.disagreements;
    (* The discrete-event simulator is an independent implementation of
       the same machine: on every generated program the analytic TE
       gain must track the event-driven one within the documented
       tolerance, and the neutral configuration must replay
       Pipeline.run cycle for cycle. *)
    (let er = Crosscheck.check_event m te in
     List.iter
       (fun d ->
         fail "esim" (Fmt.str "%a" Crosscheck.pp_event_divergence d))
       er.Crosscheck.event_divergences);
    if not report.Crosscheck.analysis.Crosscheck.analysis_clean then
      fail "verifier-greedy"
        (Fmt.str "%a"
           (Fmt.list ~sep:Fmt.comma Mhla_analysis.Diagnostic.pp)
           report.Crosscheck.analysis.Crosscheck.analysis_errors);
    let ra =
      Explore.run
        ~search:(Explore.Annealing { seed = 0x5EEDL; iterations = anneal_iterations })
        program hierarchy
    in
    let ca =
      Crosscheck.check_analysis ra.Explore.assign.Mhla_core.Assign.mapping
        ra.Explore.te
    in
    if not ca.Crosscheck.analysis_clean then
      fail "verifier-anneal"
        (Fmt.str "%a"
           (Fmt.list ~sep:Fmt.comma Mhla_analysis.Diagnostic.pp)
           ca.Crosscheck.analysis_errors);
    let ic = Crosscheck.check_interp m in
    (match mutate with
    | Drift_interp ->
      if ic.Crosscheck.dynamic_events <> ic.Crosscheck.static_events + 1 then
        fail "interp"
          (Fmt.str
             "dynamic %d <> drifted static %d (seeded +1 event drift)"
             ic.Crosscheck.dynamic_events
             (ic.Crosscheck.static_events + 1))
    | No_mutation | Drift_engine | Drift_verify ->
      if not ic.Crosscheck.interp_consistent then
        List.iter
          (fun (subject, dynamic, predicted) ->
            fail "interp"
              (Fmt.str "%s: dynamic %d <> predicted %d" subject dynamic
                 predicted))
          ic.Crosscheck.interp_mismatches);
    let rob = Robustness.analyze ~trials:4 ~faults:fault_model m te in
    if not rob.Robustness.all_zero_fault_consistent then
      fail "faults" "zero-fault replay drifted from the fault-free pipeline";
    List.iter
      (fun (p : Robustness.plan_robustness) ->
        if p.Robustness.slack_margin_cycles < 0 then
          fail "faults"
            (Fmt.str "%s: fault-free stream outside the analytic envelope (%d)"
               p.Robustness.check_id p.Robustness.slack_margin_cycles))
      rob.Robustness.plans;
    (* The frontier engine must agree with brute force: on a tiny
       single-axis grid, Explore.pareto (pruning, shared snapshot and
       all) must render exactly the frontier a plain fold of
       Explore.run over every grid point yields — this subsumes
       non-domination and the claimed-point containment guarantee. *)
    (let axes =
       [ List.sort_uniq compare [ max 1 (onchip_bytes / 2); onchip_bytes ] ]
     in
     let outcome = Explore.pareto ~jobs:1 ~axes program in
     let brute =
       Mhla_util.Pareto.Nd.of_list
         (List.map
            (fun budgets ->
              let h =
                Mhla_arch.Presets.multi_level ~level_bytes:budgets ()
              in
              let p =
                { Explore.budgets; point_result = Explore.run program h }
              in
              Mhla_util.Pareto.Nd.point
                ~objectives:(Explore.pareto_objectives p)
                p)
            (Mhla_arch.Presets.budget_grid ~axes))
     in
     let vectors f =
       List.map Mhla_util.Pareto.Nd.objectives
         (Mhla_util.Pareto.Nd.to_list f)
     in
     let got = vectors outcome.Explore.frontier
     and want = vectors brute in
     if got <> want then
       fail "pareto"
         (Fmt.str "frontier %a <> brute-force frontier %a"
            Fmt.(brackets (list ~sep:semi (array ~sep:comma float)))
            got
            Fmt.(brackets (list ~sep:semi (array ~sep:comma float)))
            want));
    (* Portfolio invariants: the winner of a policy race must itself
       verify clean, and — because greedy is in the field and ties
       break towards it — must never be worse than the plain greedy
       pipeline this case already solved. The annealing entrant runs
       the short fuzz budget, not the CLI default. *)
    (let module Policy = Mhla_policy.Policy in
     let module Portfolio = Mhla_policy.Portfolio in
     let policies =
       [
         Policy.greedy;
         Policy.greedy_first;
         Policy.make
           ~search:
             (Explore.Annealing
                { seed = 0x5EEDL; iterations = anneal_iterations })
           "anneal";
       ]
     in
     let outcome = Portfolio.race ~jobs:1 ~policies program hierarchy in
     let winner = outcome.Portfolio.winner in
     let cp =
       Crosscheck.check_analysis
         winner.Portfolio.result.Explore.assign.Mhla_core.Assign.mapping
         winner.Portfolio.result.Explore.te
     in
     if not cp.Crosscheck.analysis_clean then
       fail "policy"
         (Fmt.str "winner %s: %a" winner.Portfolio.policy.Policy.name
            (Fmt.list ~sep:Fmt.comma Mhla_analysis.Diagnostic.pp)
            cp.Crosscheck.analysis_errors);
     let greedy_objective =
       Cost.scalar Cost.Energy_delay r.Explore.after_te
     in
     if winner.Portfolio.objective > greedy_objective then
       fail "policy"
         (Fmt.str "winner %s objective %.17g worse than greedy %.17g"
            winner.Portfolio.policy.Policy.name winner.Portfolio.objective
            greedy_objective));
    (* The incremental verifier must equal a from-scratch run at every
       point: after a seeded random walk of legal moves from the
       all-Direct start, and again after rebasing onto the solved
       answer with its TE schedule installed. *)
    (let module Incremental = Mhla_analysis.Incremental in
     let module Verify = Mhla_analysis.Verify in
     let module Pass = Mhla_analysis.Pass in
     let policy = Mhla_lifetime.Occupancy.In_place in
     let config = Mhla_core.Assign.default_config in
     let inc =
       Incremental.create ~policy
         (Mhla_core.Mapping.direct
            ~transfer_mode:config.Mhla_core.Assign.transfer_mode program
            hierarchy)
     in
     let rng = Mhla_util.Prng.create ~seed:0xD1FF5EEDL in
     for _ = 1 to 12 do
       match Mhla_core.Assign.moves config (Incremental.mapping inc) with
       | [] -> ()
       | candidates ->
         Incremental.apply inc (Mhla_util.Prng.pick rng candidates)
     done;
     let diverged label incr full =
       if incr <> full then
         fail "incremental-verify"
           (Fmt.str "%s: incremental report diverged from scratch:@,%a@,vs@,%a"
              label Verify.pp_report incr Verify.pp_report full)
     in
     let walked = Incremental.report inc in
     diverged "after random walk" walked
       (Verify.run (Pass.of_mapping ~policy (Incremental.mapping inc)));
     Incremental.rebase inc m;
     Incremental.set_schedule inc (Some te);
     let rebased = Incremental.report inc in
     let scratch = Verify.run (Pass.of_mapping ~schedule:te ~policy m) in
     diverged "after rebase onto the solve" rebased scratch;
     match mutate with
     | Drift_verify ->
       (* Seeded drift: the scratch report with one phantom suppression
          can never equal the incremental one — the gate's self-test. *)
       diverged "drift" rebased
         { scratch with Verify.suppressed = scratch.Verify.suppressed + 1 }
     | No_mutation | Drift_engine | Drift_interp -> ());
    List.rev !fails
  with e -> [ { check = "exception"; detail = Printexc.to_string e } ]

type outcome = {
  seed : int64;
  profile : Generate.profile;
  program : Mhla_ir.Program.t;
  onchip_bytes : int;
  failures : failure list;
}

let run_case ?knobs ?mutate ~profile ~seed () =
  let case = Generate.case ?knobs ~profile ~seed () in
  let fs =
    failures ?mutate ~onchip_bytes:case.Generate.onchip_bytes
      case.Generate.program
  in
  {
    seed;
    profile = case.Generate.resolved;
    program = case.Generate.program;
    onchip_bytes = case.Generate.onchip_bytes;
    failures = fs;
  }

let shrink_counterexample ?mutate ~profile ~failing program =
  let predicate p =
    let fs = failures ?mutate ~onchip_bytes:(Generate.budget_for ~profile p) p in
    List.exists (fun f -> List.mem f.check failing) fs
  in
  Shrink.run ~predicate program
