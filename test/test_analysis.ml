(* Tests for the static verifier (EXT-CHECK): the diagnostics model,
   each checker pass against seeded defects with exact expected codes,
   and the verifier-accepts-solver property over the whole registry.

   The mutation tests are the teeth: every invariant a pass re-derives
   is broken on purpose in an otherwise-valid solver output, and the
   pass must name the defect by its catalogued code. A checker that
   stays silent on its own seeded defect is vacuous. *)

let invalid ?hint context message =
  Mhla_util.Error.(Error (make ?hint Invalid_input ~context message))

let internal context message =
  Mhla_util.Error.(Error (make Internal ~context message))

module Access = Mhla_ir.Access
module Affine = Mhla_ir.Affine
module Apps = Mhla_apps.Registry
module Assign = Mhla_core.Assign
module Build = Mhla_ir.Build
module Capacity = Mhla_analysis.Capacity
module Defs = Mhla_apps.Defs
module Determinism = Mhla_analysis.Determinism
module Diagnostic = Mhla_analysis.Diagnostic
module Dma_race = Mhla_analysis.Dma_race
module Explain = Mhla_analysis.Explain
module Explore = Mhla_core.Explore
module Fixpoint = Mhla_analysis.Fixpoint
module Incremental = Mhla_analysis.Incremental
module Itv = Mhla_analysis.Domain.Itv
module Lifetime = Mhla_lifetime.Schedule
module Mapping = Mhla_core.Mapping
module Pass = Mhla_analysis.Pass
module Prefetch = Mhla_core.Prefetch
module Presets = Mhla_arch.Presets
module Program = Mhla_ir.Program
module Sarif = Mhla_analysis.Sarif
module Stmt = Mhla_ir.Stmt
module Suppress = Mhla_analysis.Suppress
module Verify = Mhla_analysis.Verify

let app_program name = Lazy.force (Apps.find_exn name).Defs.program

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let code_of (d : Diagnostic.t) = d.Diagnostic.code

let codes (r : Verify.report) = List.map code_of r.Verify.diagnostics

let has_code c r = List.mem c (codes r)

let error_codes r = List.map code_of (Verify.errors r)

(* Solve one registry application end to end (both steps). *)
let solved ?(search = Explore.Greedy) name =
  let app = Apps.find_exn name in
  let r =
    Explore.run ~search
      (Lazy.force app.Defs.program)
      (Presets.two_level ~onchip_bytes:app.Defs.onchip_bytes ())
  in
  (r.Explore.assign.Assign.mapping, r.Explore.te)

(* --- diagnostics model ------------------------------------------------- *)

let test_catalogue () =
  let cs = List.map (fun (c, _, _) -> c) Diagnostic.catalogue in
  Alcotest.(check (list string))
    "catalogue sorted and duplicate-free"
    (List.sort_uniq String.compare cs)
    cs;
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " catalogued") true (List.mem c cs))
    [ "MHLA001"; "MHLA002"; "MHLA003"; "MHLA101"; "MHLA102"; "MHLA103";
      "MHLA104"; "MHLA201"; "MHLA202"; "MHLA301"; "MHLA302"; "MHLA303";
      "MHLA304";
      "MHLA305"; "MHLA306" ];
  (* Every pass declares only catalogued codes, and every catalogued
     code has exactly one owning pass — the catalogue is authoritative
     both ways. *)
  let declared =
    List.concat_map (fun (p : Pass.t) -> p.Pass.codes) Verify.passes
  in
  Alcotest.(check (list string))
    "every code owned by exactly one pass"
    cs
    (List.sort String.compare declared)

let test_make_rejects_unknown_code () =
  Alcotest.check_raises "uncatalogued code"
    (internal "Diagnostic.make" "code MHLA999 is not in the catalogue")
    (fun () ->
      ignore
        (Diagnostic.make ~code:"MHLA999" ~severity:Diagnostic.Error
           ~pass:"bounds" "nope"))

let test_severity_order () =
  let open Diagnostic in
  Alcotest.(check bool) "error > warning" true
    (compare_severity Error Warning > 0);
  Alcotest.(check bool) "warning > info" true
    (compare_severity Warning Info > 0);
  Alcotest.(check string) "labels" "error,warning,info"
    (String.concat "," (List.map severity_label [ Error; Warning; Info ]))

let test_promote_warnings () =
  let d =
    Diagnostic.make ~code:"MHLA301" ~severity:Diagnostic.Warning ~pass:"lints"
      "dead"
  in
  let p = Diagnostic.promote_warnings d in
  Alcotest.(check bool) "warning promoted" true (Diagnostic.is_error p);
  let i =
    Diagnostic.make ~code:"MHLA303" ~severity:Diagnostic.Info ~pass:"lints"
      "unused"
  in
  Alcotest.(check bool) "info untouched" false
    (Diagnostic.is_error (Diagnostic.promote_warnings i))

let test_diagnostic_json () =
  let d =
    Diagnostic.make ~code:"MHLA001" ~severity:Diagnostic.Error ~pass:"bounds"
      ~loc:(Diagnostic.location ~array:"a" ~dim:0 ())
      "out of bounds"
  in
  let s = Mhla_util.Json.to_string (Diagnostic.to_json d) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " serialised") true (contains ~needle s))
    [ "MHLA001"; "error"; "bounds"; "out of bounds" ]

(* --- bounds ------------------------------------------------------------ *)

let oob_high_program () =
  let open Build in
  program "oob_high"
    ~arrays:[ array "a" [ 8 ] ]
    [ loop "i" 8 [ stmt "s" [ rd "a" [ i "i" +$ c 8 ] ] ] ]

let oob_low_program () =
  let open Build in
  program "oob_low"
    ~arrays:[ array "a" [ 8 ] ]
    [ loop "i" 8 [ stmt "s" [ rd "a" [ i "i" -$ c 1 ] ] ] ]

let test_bounds_detects_overflow () =
  let r = Verify.run ~only:[ "bounds" ] (Pass.subject (oob_high_program ())) in
  Alcotest.(check (list string)) "MHLA001 fired" [ "MHLA001" ] (codes r);
  let d = List.hd r.Verify.diagnostics in
  Alcotest.(check bool) "error severity" true (Diagnostic.is_error d);
  Alcotest.(check (option string)) "array located" (Some "a")
    d.Diagnostic.loc.Diagnostic.array;
  Alcotest.(check (option int)) "dimension located" (Some 0)
    d.Diagnostic.loc.Diagnostic.dim

let test_bounds_detects_underflow () =
  let r = Verify.run ~only:[ "bounds" ] (Pass.subject (oob_low_program ())) in
  Alcotest.(check (list string)) "MHLA002 fired" [ "MHLA002" ] (codes r)

let test_bounds_accepts_in_range () =
  let open Build in
  let p =
    program "inrange"
      ~arrays:[ array "a" [ 8 ] ]
      [ loop "i" 8 [ stmt "s" [ rd "a" [ i "i" ] ] ] ]
  in
  let r = Verify.run ~only:[ "bounds" ] (Pass.subject p) in
  Alcotest.(check (list string)) "silent on valid program" [] (codes r)

(* --- dma-race ---------------------------------------------------------- *)

(* A plan with at least one granted extension loop, from any registry
   application: the corruption targets below need real structure. *)
let extended_plan () =
  let pick name =
    let m, te = solved name in
    match
      List.find_opt
        (fun (p : Prefetch.plan) -> p.Prefetch.extended <> [])
        te.Prefetch.plans
    with
    | Some p -> Some (m, te, p)
    | None -> None
  in
  match List.find_map pick Apps.names with
  | Some x -> x
  | None -> Alcotest.fail "no registry app grants any TE extension"

let with_plan (te : Prefetch.schedule) plan =
  {
    te with
    Prefetch.plans =
      List.map
        (fun (p : Prefetch.plan) ->
          if p.Prefetch.bt.Mapping.bt_id = plan.Prefetch.bt.Mapping.bt_id
          then plan
          else p)
        te.Prefetch.plans;
  }

let verify_schedule m te = Verify.run ~only:[ "dma-race" ] (Pass.of_mapping ~schedule:te m)

let test_race_accepts_solver_schedule () =
  let m, te, _ = extended_plan () in
  Alcotest.(check (list string)) "solver schedule races nothing" []
    (codes (verify_schedule m te))

let test_race_detects_dependency_crossing () =
  let m, te, plan = extended_plan () in
  let freedom = Dma_race.freedom_of_plan m plan in
  let extended = freedom @ [ "__phantom" ] in
  let bad =
    { plan with Prefetch.extended; extra_buffers = List.length extended }
  in
  let r = verify_schedule m (with_plan te bad) in
  Alcotest.(check (list string)) "MHLA101 fired" [ "MHLA101" ] (error_codes r)

let test_race_detects_buffer_shortfall () =
  let m, te, plan = extended_plan () in
  let bad =
    { plan with Prefetch.extra_buffers = List.length plan.Prefetch.extended - 1 }
  in
  let r = verify_schedule m (with_plan te bad) in
  Alcotest.(check bool) "MHLA102 fired" true (has_code "MHLA102" r)

let test_race_detects_overclaimed_hiding () =
  let m, te, plan = extended_plan () in
  let bad = { plan with Prefetch.hidden_cycles = 1_000_000_000 } in
  let r = verify_schedule m (with_plan te bad) in
  Alcotest.(check bool) "MHLA103 fired" true (has_code "MHLA103" r)

let test_race_detects_ineligible_plan () =
  let m, te, plan = extended_plan () in
  let bad =
    { plan with Prefetch.bt = { plan.Prefetch.bt with Mapping.src_layer = 0 } }
  in
  let r = verify_schedule m (with_plan te bad) in
  Alcotest.(check bool) "MHLA104 fired" true (has_code "MHLA104" r)

let test_freedom_matches_solver () =
  (* The verifier's independent freedom recomputation must agree with
     the solver's own bookkeeping on every plan of every application —
     the strongest evidence the re-derivation mirrors the real
     dependence structure rather than approximating it. *)
  List.iter
    (fun name ->
      let m, te = solved name in
      List.iter
        (fun (p : Prefetch.plan) ->
          Alcotest.(check (list string))
            (name ^ "/" ^ p.Prefetch.bt.Mapping.bt_id ^ ": freedom agrees")
            p.Prefetch.freedom
            (Dma_race.freedom_of_plan m p))
        te.Prefetch.plans)
    Apps.names

(* --- capacity ---------------------------------------------------------- *)

let test_capacity_accepts_solver_mapping () =
  let m, te = solved "motion_estimation" in
  let r = Verify.run ~only:[ "capacity" ] (Pass.of_mapping ~schedule:te m) in
  Alcotest.(check (list string)) "solver mapping fits" [] (codes r)

let test_capacity_detects_overflow () =
  let m, te = solved "motion_estimation" in
  let peaks =
    Capacity.recomputed_peaks ~schedule:te
      ~policy:Mhla_lifetime.Occupancy.In_place m
  in
  let peak = List.fold_left (fun acc (_, p) -> max acc p) 0 peaks in
  Alcotest.(check bool) "something lives on-chip" true (peak > 1);
  let tight =
    Mapping.with_hierarchy m (Presets.two_level ~onchip_bytes:(peak - 1) ())
  in
  let r =
    Verify.run ~only:[ "capacity" ] (Pass.of_mapping ~schedule:te tight)
  in
  Alcotest.(check (list string)) "MHLA201 fired" [ "MHLA201" ] (codes r);
  let d = List.hd r.Verify.diagnostics in
  Alcotest.(check (option int)) "layer located" (Some 0)
    d.Diagnostic.loc.Diagnostic.layer

let test_capacity_checks_exploration_budget () =
  let m, te = solved "motion_estimation" in
  let peaks =
    Capacity.recomputed_peaks ~schedule:te
      ~policy:Mhla_lifetime.Occupancy.In_place m
  in
  let peak = List.fold_left (fun acc (_, p) -> max acc p) 0 peaks in
  Alcotest.(check bool) "something lives on-chip" true (peak > 1);
  (* The physical capacity still holds, only the tighter exploration
     budget is exceeded: MHLA202 fires alone. *)
  let subject budget =
    Pass.of_mapping ~schedule:te ~layer_budgets:[ budget ] m
  in
  let r = Verify.run ~only:[ "capacity" ] (subject (peak - 1)) in
  Alcotest.(check (list string)) "MHLA202 fired" [ "MHLA202" ] (codes r);
  let d = List.hd r.Verify.diagnostics in
  Alcotest.(check (option int)) "layer located" (Some 0)
    d.Diagnostic.loc.Diagnostic.layer;
  (* A budget the mapping honours is clean. *)
  let r = Verify.run ~only:[ "capacity" ] (subject peak) in
  Alcotest.(check (list string)) "honoured budget is clean" [] (codes r)

(* --- lints ------------------------------------------------------------- *)

let test_lints () =
  let open Build in
  let p =
    program "linty"
      ~arrays:
        [ array "dead" [ 4 ]; array "wo" [ 4 ]; array "src" [ 4 ] ]
      [ loop "once" 1
          [ loop "u" 4
              [ loop "i" 4
                  [ stmt "s" [ rd "src" [ i "i" ]; wr "wo" [ i "i" ] ] ] ] ] ]
  in
  let r = Verify.run ~only:[ "lints" ] (Pass.subject p) in
  Alcotest.(check bool) "lints are never errors" true (Verify.ok r);
  List.iter
    (fun c -> Alcotest.(check bool) (c ^ " fired") true (has_code c r))
    [ "MHLA301" (* dead *); "MHLA302" (* wo *); "MHLA303" (* u unused *);
      "MHLA304" (* once: trip 1 *) ]

(* --- driver ------------------------------------------------------------ *)

let test_only_and_skip () =
  let p = oob_high_program () in
  let r = Verify.run ~only:[ "bounds" ] (Pass.subject p) in
  Alcotest.(check (list string)) "only bounds ran" [ "bounds" ]
    r.Verify.passes_run;
  let r = Verify.run ~skip:[ "lints"; "bounds" ] (Pass.subject p) in
  Alcotest.(check (list string)) "skip removes passes"
    [ "dma-race"; "capacity"; "interference"; "determinism" ]
    r.Verify.passes_run;
  Alcotest.(check bool) "skipping bounds hides the defect" true
    (Verify.ok r);
  Alcotest.check_raises "unknown pass name"
    (invalid
       ~hint:
         "passes: bounds, dma-race, capacity, interference, determinism, \
          lints"
       "Verify.run" "unknown pass \"typo\" in skip")
    (fun () -> ignore (Verify.run ~skip:[ "typo" ] (Pass.subject p)))

let test_werror_promotion () =
  let m, te = solved "motion_estimation" in
  let r = Verify.run (Pass.of_mapping ~schedule:te m) in
  Alcotest.(check bool) "clean before promotion" true (Verify.ok r);
  Alcotest.(check bool) "has warnings to promote" true
    (Verify.warnings r <> []);
  let promoted = Verify.promote_warnings r in
  Alcotest.(check bool) "promotion fails the report" false
    (Verify.ok promoted)

let test_report_json_and_pp () =
  let m, te = solved "motion_estimation" in
  let r = Verify.run (Pass.of_mapping ~schedule:te m) in
  let s = Mhla_util.Json.to_string (Verify.report_to_json r) in
  Alcotest.(check bool) "json mentions the subject" true
    (contains ~needle:"motion_estimation" s);
  let text = Fmt.str "%a" Verify.pp_report r in
  Alcotest.(check bool) "summary says OK" true (contains ~needle:"OK" text)

(* --- verifier accepts the solver (whole registry) ---------------------- *)

let searches =
  [ ("greedy", Explore.Greedy);
    ("anneal", Explore.Annealing { seed = 7L; iterations = 800 }) ]

let test_verifier_accepts_solver () =
  List.iter
    (fun name ->
      List.iter
        (fun (sname, search) ->
          let m, te = solved ~search name in
          let with_te = Verify.run (Pass.of_mapping ~schedule:te m) in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s with TE: no errors" name sname)
            [] (error_codes with_te);
          let without = Verify.run (Pass.of_mapping m) in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s without TE: no errors" name sname)
            [] (error_codes without))
        searches)
    Apps.names

let test_crosscheck_hook () =
  let m, te = solved "cavity_detector" in
  let check = Mhla_sim.Crosscheck.check_analysis m te in
  Alcotest.(check bool) "solver output verifies clean" true
    check.Mhla_sim.Crosscheck.analysis_clean;
  let report = Mhla_sim.Crosscheck.crosscheck m te in
  Alcotest.(check bool) "crosscheck carries the analysis verdict" true
    report.Mhla_sim.Crosscheck.analysis.Mhla_sim.Crosscheck.analysis_clean

(* --- fixpoint (abstract interpretation) -------------------------------- *)

let rec node_names (stmts, iters) = function
  | Program.Stmt s -> (s.Stmt.name :: stmts, iters)
  | Program.Loop l ->
    List.fold_left node_names (stmts, l.Program.iter :: iters) l.Program.body

let program_names (p : Program.t) =
  List.fold_left node_names ([], []) p.Program.body

let test_fixpoint_timeline_matches_enumeration () =
  (* The worklist fixpoint re-derives the lifetime timeline that
     {!Mhla_lifetime.Schedule} computes by direct enumeration; on every
     registry application the two must agree interval-for-interval —
     the capacity pass's occupancy recomputation rides on this. *)
  List.iter
    (fun name ->
      let program = app_program name in
      let sol = Fixpoint.analyze program in
      let sched = Lifetime.of_program program in
      Alcotest.(check int)
        (name ^ ": horizon")
        (Lifetime.horizon sched) (Fixpoint.horizon sol);
      let stmts, iters = program_names program in
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (name ^ "/" ^ s ^ ": stmt interval")
            true
            (Lifetime.stmt_interval sched s = Fixpoint.stmt_interval sol s))
        stmts;
      List.iter
        (fun it ->
          Alcotest.(check bool)
            (name ^ "/" ^ it ^ ": loop interval")
            true
            (Lifetime.loop_interval sched it = Fixpoint.loop_interval sol it))
        iters;
      List.iter
        (fun (a : Mhla_ir.Array_decl.t) ->
          let arr = a.Mhla_ir.Array_decl.name in
          Alcotest.(check bool)
            (name ^ "/" ^ arr ^ ": array interval")
            true
            (Lifetime.array_interval sched arr
            = Fixpoint.array_interval sol arr))
        program.Program.arrays)
    Apps.names

let test_fixpoint_eval_matches_enumeration () =
  (* At every statement of every application, the interval the fixpoint
     assigns to each affine subscript is exactly the min/max over the
     enclosing iteration space — value ranges are derived, not
     enumerated, and they lose nothing. *)
  List.iter
    (fun name ->
      let program = app_program name in
      let sol = Fixpoint.analyze program in
      List.iter
        (fun (ctx : Program.context) ->
          let trip it =
            match List.assoc_opt it ctx.Program.loops with
            | Some t -> t
            | None -> 1
          in
          let stmt = ctx.Program.stmt.Stmt.name in
          List.iter
            (fun (a : Access.t) ->
              List.iter
                (fun e ->
                  let itv = Fixpoint.eval sol ~stmt e in
                  Alcotest.(check (option int))
                    (Fmt.str "%s/%s/%s: lo" name stmt a.Access.array)
                    (Some (Affine.min_value e ~trip))
                    (Itv.lo_int itv);
                  Alcotest.(check (option int))
                    (Fmt.str "%s/%s/%s: hi" name stmt a.Access.array)
                    (Some (Affine.max_value e ~trip))
                    (Itv.hi_int itv))
                a.Access.index)
            ctx.Program.stmt.Stmt.accesses)
        (Program.contexts program))
    Apps.names

let test_fixpoint_converges_finitely () =
  (* Widening must terminate and narrowing must recover every iterator
     to its exact [0, trip-1] guard — no residual infinities. *)
  let sol = Fixpoint.analyze (app_program "mp3_filterbank") in
  let stats = Fixpoint.stats sol in
  Alcotest.(check bool) "visited nodes" true (stats.Fixpoint.visits > 0);
  Alcotest.(check bool) "bounded sweeps" true (stats.Fixpoint.sweeps <= 4)

(* --- interference ------------------------------------------------------- *)

let verify_interference m te =
  Verify.run ~only:[ "interference" ] (Pass.of_mapping ~schedule:te m)

let test_interference_accepts_solver () =
  List.iter
    (fun name ->
      let m, te = solved name in
      Alcotest.(check (list string))
        (name ^ ": solver schedule interferes with nothing")
        []
        (codes (verify_interference m te)))
    Apps.names

let test_interference_detects_priority_hole () =
  let m, te, plan = extended_plan () in
  let bad =
    { plan with Prefetch.dma_priority = plan.Prefetch.dma_priority + 1 }
  in
  let r = verify_interference m (with_plan te bad) in
  Alcotest.(check bool) "MHLA204 fired" true (has_code "MHLA204" r);
  Alcotest.(check bool) "priority hole is an error" false (Verify.ok r)

let test_interference_detects_misgrant () =
  (* Grant a plan an iterator from a disjoint loop nest: that loop's
     span on the fixpoint timeline cannot enclose the candidate's
     buffer lifetime, so containment (MHLA203) must fire. *)
  let module I = Mhla_util.Interval in
  let found =
    List.find_map
      (fun name ->
        let m, te = solved name in
        let sol = Fixpoint.analyze m.Mapping.program in
        let _, iters = program_names m.Mapping.program in
        List.find_map
          (fun (p : Prefetch.plan) ->
            let life =
              Fixpoint.candidate_interval sol p.Prefetch.bt.Mapping.bt_candidate
            in
            List.find_map
              (fun it ->
                let span = Fixpoint.loop_interval sol it in
                if span.I.lo <= life.I.lo && life.I.hi <= span.I.hi then None
                else Some (m, te, p, it))
              iters)
          te.Prefetch.plans)
      Apps.names
  in
  match found with
  | None -> Alcotest.fail "no app offers a non-enclosing iterator to misgrant"
  | Some (m, te, plan, it) ->
    let bad =
      { plan with Prefetch.extended = [ it ]; Prefetch.extra_buffers = 1 }
    in
    let r = verify_interference m (with_plan te bad) in
    Alcotest.(check bool) "MHLA203 fired" true (has_code "MHLA203" r);
    Alcotest.(check bool) "misgrant is an error" false (Verify.ok r)

(* --- determinism -------------------------------------------------------- *)

let test_determinism_flags_ties () =
  let m, te = solved "qsdpcm" in
  let ties = Determinism.check_ties m te in
  Alcotest.(check bool) "qsdpcm's greedy order carries ties" true (ties <> []);
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.(check string) "tie code" "MHLA401" (code_of d);
      Alcotest.(check bool) "advisory severity" true
        (d.Diagnostic.severity = Diagnostic.Info))
    ties;
  let r = Verify.run ~only:[ "determinism" ] (Pass.of_mapping ~schedule:te m) in
  Alcotest.(check bool) "ties never fail the report" true (Verify.ok r)

let test_determinism_flags_recurrence () =
  let open Build in
  let p =
    program "recur"
      ~arrays:[ array "a" [ 8 ] ]
      [ loop "i" 8 [ stmt "s" [ rd "a" [ i "i" ]; wr "a" [ i "i" ] ] ] ]
  in
  let r = Verify.run ~only:[ "determinism" ] (Pass.subject p) in
  Alcotest.(check (list string)) "MHLA402 fired" [ "MHLA402" ] (codes r);
  Alcotest.(check bool) "recurrence is advisory" true (Verify.ok r)

let test_determinism_silent_on_disjoint_regions () =
  let open Build in
  let p =
    program "disjoint"
      ~arrays:[ array "a" [ 16 ] ]
      [ loop "i" 8 [ stmt "s" [ rd "a" [ i "i" ]; wr "a" [ i "i" +$ c 8 ] ] ] ]
  in
  let r = Verify.run ~only:[ "determinism" ] (Pass.subject p) in
  Alcotest.(check (list string)) "disjoint boxes are silent" [] (codes r)

(* --- suppression -------------------------------------------------------- *)

let test_suppress_parse_and_apply () =
  let sup =
    Suppress.parse ~origin:"test"
      "# a comment\n\nMHLA001 array=a dim=0\nMHLA301  # trailing comment\n"
  in
  Alcotest.(check int) "two rules parsed" 2 (List.length (Suppress.rules sup));
  let r =
    Verify.run ~only:[ "bounds" ] ~suppress:sup
      (Pass.subject (oob_high_program ()))
  in
  Alcotest.(check (list string)) "matching rule silences" [] (codes r);
  Alcotest.(check int) "counted, not forgotten" 1 r.Verify.suppressed;
  Alcotest.(check bool) "report turns ok" true (Verify.ok r)

let test_suppress_mismatch_keeps_finding () =
  let sup = Suppress.parse ~origin:"test" "MHLA001 array=zzz" in
  let r =
    Verify.run ~only:[ "bounds" ] ~suppress:sup
      (Pass.subject (oob_high_program ()))
  in
  Alcotest.(check (list string)) "constraint mismatch keeps it" [ "MHLA001" ]
    (codes r);
  Alcotest.(check int) "nothing suppressed" 0 r.Verify.suppressed

let test_suppress_rejects_garbage () =
  Alcotest.check_raises "unknown code"
    (invalid
       ~hint:"rules are `CODE [field=value]...` with a catalogued code"
       "Suppress.parse" "cfg:1: unknown diagnostic code \"MHLA999\"")
    (fun () -> ignore (Suppress.parse ~origin:"cfg" "MHLA999"));
  Alcotest.check_raises "malformed constraint"
    (invalid
       ~hint:"constraints look like stmt=S0 or layer=0"
       "Suppress.parse" "cfg:1: malformed constraint \"array\" (no `=`)")
    (fun () -> ignore (Suppress.parse ~origin:"cfg" "MHLA001 array"))

(* --- explain ------------------------------------------------------------ *)

let test_explain_covers_catalogue () =
  (* Every catalogued code must have an owning pass and a real
     derivation story — the --explain surface has no holes. *)
  List.iter
    (fun (c, severity, _) ->
      match Explain.find c with
      | None -> Alcotest.fail (c ^ " has no explanation")
      | Some e ->
        Alcotest.(check string) (c ^ ": code echoed") c e.Explain.code;
        Alcotest.(check bool) (c ^ ": severity matches") true
          (e.Explain.severity = severity);
        Alcotest.(check bool) (c ^ ": owned by a pass") true
          (e.Explain.pass <> "unregistered");
        Alcotest.(check bool) (c ^ ": has a derivation story") true
          (e.Explain.detail <> "(no extended explanation recorded)");
        let text = Fmt.str "%a" Explain.pp e in
        Alcotest.(check bool) (c ^ ": rendering mentions the code") true
          (contains ~needle:c text))
    Diagnostic.catalogue

let test_explain_rejects_unknown_code () =
  Alcotest.check_raises "unknown code"
    (invalid
       ~hint:"codes are listed by `mhla check --help` and DESIGN.md"
       "Explain.explain" "unknown diagnostic code \"MHLA999\"")
    (fun () -> ignore (Explain.explain "MHLA999"))

(* --- sarif -------------------------------------------------------------- *)

let test_sarif_export () =
  let m, te = solved "motion_estimation" in
  let r = Verify.run (Pass.of_mapping ~schedule:te m) in
  let doc = Sarif.of_report ~tool_version:"test" r in
  let s = Mhla_util.Json.to_string doc in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle s))
    [ "2.1.0"; "motion_estimation"; "\"results\""; "\"rules\"" ];
  (match Mhla_util.Json.parse s with
  | Ok _ -> ()
  | Error e ->
    Alcotest.fail
      ("SARIF does not reparse: " ^ Mhla_util.Json.parse_error_to_string e));
  (* one SARIF result per reported diagnostic *)
  let count needle hay =
    let n = String.length needle in
    let rec go acc i =
      if i + n > String.length hay then acc
      else if String.sub hay i n = needle then go (acc + 1) (i + n)
      else go acc (i + 1)
    in
    go 0 0
  in
  Alcotest.(check int) "one result per diagnostic"
    (List.length r.Verify.diagnostics)
    (count "\"ruleId\"" s)

(* --- incremental verification ------------------------------------------- *)

let incremental_for config (program : Program.t) hierarchy =
  Incremental.create
    (Mapping.direct ~transfer_mode:config.Assign.transfer_mode program
       hierarchy)

let test_incremental_matches_scratch () =
  (* The acceptance invariant: after EVERY move of a deterministic walk,
     and again after rebasing onto the solved mapping with its TE
     schedule installed, the incremental report equals a from-scratch
     Verify.run structurally. *)
  List.iter
    (fun name ->
      let app = Apps.find_exn name in
      let program = Lazy.force app.Defs.program in
      let hierarchy = Presets.two_level ~onchip_bytes:app.Defs.onchip_bytes () in
      let config = Assign.default_config in
      let inc = incremental_for config program hierarchy in
      let scratch () =
        Verify.run
          (Pass.of_mapping
             ?schedule:(Incremental.schedule inc)
             (Incremental.mapping inc))
      in
      let agree label =
        Alcotest.(check bool)
          (Fmt.str "%s: incremental = full %s" name label)
          true
          (Incremental.report inc = scratch ())
      in
      agree "at the direct start";
      for step = 1 to 8 do
        (match Assign.moves config (Incremental.mapping inc) with
        | [] -> ()
        | candidates ->
          Incremental.apply inc
            (List.nth candidates (step * 7 mod List.length candidates)));
        agree (Fmt.str "after move %d" step)
      done;
      let r =
        Explore.run program hierarchy
      in
      Incremental.rebase inc r.Explore.assign.Assign.mapping;
      agree "after rebase onto the solve";
      Incremental.set_schedule inc (Some r.Explore.te);
      agree "with the TE schedule installed";
      let stats = Incremental.stats inc in
      Alcotest.(check bool) (name ^ ": counted its moves") true
        (stats.Incremental.moves_applied >= 8);
      Alcotest.(check int) (name ^ ": one schedule update") 1
        stats.Incremental.schedule_updates)
    Apps.names

let test_incremental_rejects_foreign_rebase () =
  let config = Assign.default_config in
  let h = Presets.two_level ~onchip_bytes:4096 () in
  let inc = incremental_for config (app_program "motion_estimation") h in
  let foreign =
    Mapping.direct ~transfer_mode:config.Assign.transfer_mode
      (app_program "qsdpcm") h
  in
  Alcotest.check_raises "foreign program rejected"
    (invalid
       ~hint:
         "create the verifier from Mapping.direct with the solve's own \
          transfer mode and hierarchy (see Live.of_config)"
       "Incremental.rebase"
       "target mapping solves a different problem (program differs; program \
        qsdpcm vs motion_estimation)")
    (fun () -> Incremental.rebase inc foreign)

(* --- normalisation ------------------------------------------------------ *)

let test_normalize_dedups_and_orders () =
  let lint =
    Diagnostic.make ~code:"MHLA301" ~severity:Diagnostic.Warning ~pass:"lints"
      ~loc:(Diagnostic.location ~array:"a" ())
      "dead array"
  in
  let oob =
    Diagnostic.make ~code:"MHLA001" ~severity:Diagnostic.Error ~pass:"bounds"
      ~loc:(Diagnostic.location ~array:"a" ~dim:0 ())
      "out of bounds"
  in
  let n = Verify.normalize [ lint; oob; lint; oob; lint ] in
  Alcotest.(check int) "exact duplicates collapse" 2 (List.length n);
  Alcotest.(check (list string))
    "stable order, independent of input order"
    (List.map code_of n)
    (List.map code_of (Verify.normalize [ oob; lint ]));
  Alcotest.(check (list string))
    "reversal changes nothing"
    (List.map code_of (Verify.normalize [ lint; oob ]))
    (List.map code_of (Verify.normalize [ oob; lint ]))

let () =
  Alcotest.run "analysis"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "catalogue" `Quick test_catalogue;
          Alcotest.test_case "unknown code rejected" `Quick
            test_make_rejects_unknown_code;
          Alcotest.test_case "severity order" `Quick test_severity_order;
          Alcotest.test_case "promote warnings" `Quick test_promote_warnings;
          Alcotest.test_case "json" `Quick test_diagnostic_json;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "overflow" `Quick test_bounds_detects_overflow;
          Alcotest.test_case "underflow" `Quick test_bounds_detects_underflow;
          Alcotest.test_case "in range" `Quick test_bounds_accepts_in_range;
        ] );
      ( "dma-race",
        [
          Alcotest.test_case "accepts solver" `Quick
            test_race_accepts_solver_schedule;
          Alcotest.test_case "dependency crossing" `Quick
            test_race_detects_dependency_crossing;
          Alcotest.test_case "buffer shortfall" `Quick
            test_race_detects_buffer_shortfall;
          Alcotest.test_case "overclaimed hiding" `Quick
            test_race_detects_overclaimed_hiding;
          Alcotest.test_case "ineligible plan" `Quick
            test_race_detects_ineligible_plan;
          Alcotest.test_case "freedom matches solver" `Quick
            test_freedom_matches_solver;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "accepts solver" `Quick
            test_capacity_accepts_solver_mapping;
          Alcotest.test_case "overflow" `Quick test_capacity_detects_overflow;
          Alcotest.test_case "exploration budget" `Quick
            test_capacity_checks_exploration_budget;
        ] );
      ("lints", [ Alcotest.test_case "program lints" `Quick test_lints ]);
      ( "driver",
        [
          Alcotest.test_case "only / skip" `Quick test_only_and_skip;
          Alcotest.test_case "Werror" `Quick test_werror_promotion;
          Alcotest.test_case "report json / pp" `Quick
            test_report_json_and_pp;
        ] );
      ( "solver",
        [
          Alcotest.test_case "verifier accepts solver" `Slow
            test_verifier_accepts_solver;
          Alcotest.test_case "crosscheck hook" `Quick test_crosscheck_hook;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "timeline matches enumeration" `Quick
            test_fixpoint_timeline_matches_enumeration;
          Alcotest.test_case "eval matches enumeration" `Quick
            test_fixpoint_eval_matches_enumeration;
          Alcotest.test_case "converges finitely" `Quick
            test_fixpoint_converges_finitely;
        ] );
      ( "interference",
        [
          Alcotest.test_case "accepts solver" `Slow
            test_interference_accepts_solver;
          Alcotest.test_case "priority hole" `Quick
            test_interference_detects_priority_hole;
          Alcotest.test_case "misgranted loop" `Slow
            test_interference_detects_misgrant;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "flags ties" `Quick test_determinism_flags_ties;
          Alcotest.test_case "flags recurrence" `Quick
            test_determinism_flags_recurrence;
          Alcotest.test_case "silent on disjoint regions" `Quick
            test_determinism_silent_on_disjoint_regions;
        ] );
      ( "suppress",
        [
          Alcotest.test_case "parse and apply" `Quick
            test_suppress_parse_and_apply;
          Alcotest.test_case "mismatch keeps finding" `Quick
            test_suppress_mismatch_keeps_finding;
          Alcotest.test_case "rejects garbage" `Quick
            test_suppress_rejects_garbage;
        ] );
      ( "explain",
        [
          Alcotest.test_case "covers catalogue" `Quick
            test_explain_covers_catalogue;
          Alcotest.test_case "rejects unknown code" `Quick
            test_explain_rejects_unknown_code;
        ] );
      ("sarif", [ Alcotest.test_case "export" `Quick test_sarif_export ]);
      ( "incremental",
        [
          Alcotest.test_case "matches scratch at every move" `Slow
            test_incremental_matches_scratch;
          Alcotest.test_case "rejects foreign rebase" `Quick
            test_incremental_rejects_foreign_rebase;
        ] );
      ( "normalize",
        [
          Alcotest.test_case "dedup and order" `Quick
            test_normalize_dedups_and_orders;
        ] );
    ]
