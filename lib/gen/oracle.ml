module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Crosscheck = Mhla_sim.Crosscheck
module Engine = Mhla_core.Engine
module Explore = Mhla_core.Explore
module Mapping = Mhla_core.Mapping
module Verify = Mhla_analysis.Verify

type mutation = No_mutation | Drift_engine | Drift_interp

let mutation_names =
  [ ("none", No_mutation); ("engine", Drift_engine); ("interp", Drift_interp) ]

type failure = { check : string; detail : string }

let check_names =
  [
    "json"; "engine"; "xval"; "esim"; "verifier-greedy"; "verifier-anneal";
    "interp"; "pareto"; "policy";
  ]

(* Kept low: the annealing leg runs once per fuzz case, and the CI gate
   runs 200 cases. The point is differential coverage of the annealing
   code path, not search quality. *)
let anneal_iterations = 300

let anneal_seed = 0x5EEDL

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
    let h = Engine.resolve e move in
    if
      Engine.feasible e h
      <> Mapping.occupancy_ok (Assign.apply_move (Engine.mapping e) move)
    then incr mismatches;
    Engine.commit e h;
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

(* The verifier's [Error]-severity findings on a solve's answer: a
   generated solver output that fails to verify clean is a solver bug. *)
let verifier_errors result =
  Verify.errors (Verify.check_result result)

let pp_errors = Fmt.list ~sep:Fmt.comma Mhla_analysis.Diagnostic.pp

let failures ?(mutate = No_mutation) ~onchip_bytes program =
  try
    let hierarchy = Mhla_arch.Presets.two_level ~onchip_bytes () in
    let r = Explore.run program hierarchy in
    let m = r.Explore.assign.Assign.mapping in
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
    (let ec = check_engine m in
     if not ec.engine_consistent then
       fail "engine"
         (Fmt.str
            "engine %.17g <> oracle %.17g after churn, %d feasibility \
             mismatch(es)"
            ec.engine_objective ec.oracle_objective
            ec.feasibility_mismatches));
    let ra =
      Explore.run
        ~search:
          (Explore.Annealing
             { seed = anneal_seed; iterations = anneal_iterations })
        program hierarchy
    in
    (* Each production search must take exactly its from-scratch
       reference's decisions and count the same evaluations: the greedy
       (which skips every probe its cached deltas certify cannot change
       a round's decision) on the case's platform (the solve above) and
       on one with a second, larger on-chip level, where more moves and
       array re-homings compete; the annealing solve on the case's
       platform. *)
    (let decisions (a : Assign.result) =
       let am = a.Assign.mapping in
       ( List.map
           (fun (info : Mhla_reuse.Analysis.info) ->
             Mapping.placement_of am info.Mhla_reuse.Analysis.ref_)
           am.Mapping.infos,
         am.Mapping.array_layers,
         a.Assign.steps,
         a.Assign.breakdown,
         a.Assign.evaluations )
     in
     let rec first_diff k = function
       | (e : Assign.step) :: es, (o : Assign.step) :: os ->
         if e = o then first_diff (k + 1) (es, os)
         else
           Fmt.str "step %d: %s (%.17g) <> %s (%.17g)" k
             (Assign.describe_move e.Assign.move) e.Assign.objective_after
             (Assign.describe_move o.Assign.move) o.Assign.objective_after
       | [], [] -> "same steps, different final state or evaluation count"
       | _, _ -> Fmt.str "step %d: one search stopped" k
     in
     (* Seeded drift: one phantom reference evaluation, so both
        comparisons must trip — the gate's self-test. *)
     let drift =
       match mutate with
       | Drift_engine -> 1
       | No_mutation | Drift_interp -> 0
     in
     let compare search platform (engine : Assign.result)
         (reference : Assign.result) =
       let reference =
         { reference with
           Assign.evaluations = reference.Assign.evaluations + drift }
       in
       if decisions engine <> decisions reference then
         fail "engine"
           (Fmt.str
              "%s decisions diverge from the reference %s on %s (%d vs %d \
               steps, %d vs %d evaluations): %s"
              search search platform
              (List.length engine.Assign.steps)
              (List.length reference.Assign.steps)
              engine.Assign.evaluations reference.Assign.evaluations
              (first_diff 1 (engine.Assign.steps, reference.Assign.steps)))
     in
     compare "greedy" "the case's platform" r.Explore.assign
       (Reference.greedy program hierarchy);
     let two_levels =
       Mhla_arch.Presets.multi_level
         ~level_bytes:[ onchip_bytes; 8 * onchip_bytes ]
         ()
     in
     compare "greedy" "two on-chip levels"
       (Assign.greedy program two_levels)
       (Reference.greedy program two_levels);
     compare "annealing" "the case's platform" ra.Explore.assign
       (Reference.simulated_annealing ~seed:anneal_seed
          ~iterations:anneal_iterations program hierarchy));
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
    | No_mutation | Drift_interp -> ());
    List.iter
      (fun c ->
        if not (Crosscheck.agrees c) then
          fail "xval" (Fmt.str "%a" Crosscheck.pp_check c))
      (Crosscheck.pipeline_checks m te);
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
    (match verifier_errors r with
    | [] -> ()
    | errors -> fail "verifier-greedy" (Fmt.str "%a" pp_errors errors));
    (match verifier_errors ra with
    | [] -> ()
    | errors -> fail "verifier-anneal" (Fmt.str "%a" pp_errors errors));
    let ic = check_interp m in
    (match mutate with
    | Drift_interp ->
      if ic.dynamic_events <> ic.static_events + 1 then
        fail "interp"
          (Fmt.str
             "dynamic %d <> drifted static %d (seeded +1 event drift)"
             ic.dynamic_events
             (ic.static_events + 1))
    | No_mutation | Drift_engine ->
      if not ic.interp_consistent then
        List.iter
          (fun (subject, dynamic, predicted) ->
            fail "interp"
              (Fmt.str "%s: dynamic %d <> predicted %d" subject dynamic
                 predicted))
          ic.interp_mismatches);
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
                { seed = anneal_seed; iterations = anneal_iterations })
           "anneal";
       ]
     in
     let outcome = Portfolio.race ~jobs:1 ~policies program hierarchy in
     let winner = outcome.Portfolio.winner in
     (match verifier_errors winner.Portfolio.result with
     | [] -> ()
     | errors ->
       fail "policy"
         (Fmt.str "winner %s: %a" winner.Portfolio.policy.Policy.name
            pp_errors errors));
     let greedy_objective =
       Cost.scalar Cost.Energy_delay r.Explore.after_te
     in
     if winner.Portfolio.objective > greedy_objective then
       fail "policy"
         (Fmt.str "winner %s objective %.17g worse than greedy %.17g"
            winner.Portfolio.policy.Policy.name winner.Portfolio.objective
            greedy_objective));
    List.rev !fails
  with e -> [ { check = "exception"; detail = Printexc.to_string e } ]

type outcome = {
  seed : int64;
  profile : Generate.profile;
  program : Mhla_ir.Program.t;
  onchip_bytes : int;
  failures : failure list;
}

let run_case ?mutate ~profile ~seed () =
  let case = Generate.case ~profile ~seed () in
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
