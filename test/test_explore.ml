(* Tests for the two-step exploration flow and the size sweeps. *)

module Build = Mhla_ir.Build
module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Explore = Mhla_core.Explore
module Prefetch = Mhla_core.Prefetch
module Report = Mhla_core.Report
module Pareto = Mhla_util.Pareto
module Presets = Mhla_arch.Presets

let kernel () =
  let open Build in
  program "kernel"
    ~arrays:
      [ array "image" [ 34; 34 ]; array "coeff" [ 3; 3 ];
        array "out" [ 32; 32 ] ]
    [ loop "y" 32
        [ loop "x" 32
            [ loop "ky" 3
                [ loop "kx" 3
                    [ stmt "mac" ~work:4
                        [ rd "image" [ i "y" +$ i "ky"; i "x" +$ i "kx" ];
                          rd "coeff" [ i "ky"; i "kx" ];
                          wr "out" [ i "y"; i "x" ] ] ] ] ] ] ]

let run ?(budget = 512) () =
  Explore.run (kernel ()) (Presets.two_level ~onchip_bytes:budget ())

let test_design_point_ordering () =
  let r = run () in
  let b = r.Explore.baseline.Cost.total_cycles in
  let a = r.Explore.after_assign.Cost.total_cycles in
  let t = r.Explore.after_te.Cost.total_cycles in
  let i = r.Explore.ideal.Cost.total_cycles in
  Alcotest.(check bool) "assign <= baseline" true (a <= b);
  Alcotest.(check bool) "te <= assign" true (t <= a);
  Alcotest.(check bool) "ideal <= te" true (i <= t)

let test_te_energy_invariant () =
  let r = run () in
  Alcotest.(check (float 1e-9)) "energy identical before/after TE"
    r.Explore.after_assign.Cost.total_energy_pj
    r.Explore.after_te.Cost.total_energy_pj

let test_normalised_views () =
  let r = run () in
  Alcotest.(check bool) "normalised times in (0, 1]" true
    (Explore.time_after_assign r > 0. && Explore.time_after_assign r <= 1.);
  Alcotest.(check bool) "te <= assign (normalised)" true
    (Explore.time_after_te r <= Explore.time_after_assign r);
  Alcotest.(check bool) "ideal lowest" true
    (Explore.time_ideal r <= Explore.time_after_te r);
  Alcotest.(check (float 1e-9)) "gain consistent with normalised time"
    (100. *. (1. -. Explore.time_after_assign r))
    (Explore.assign_time_gain_percent r);
  Alcotest.(check (float 1e-9)) "energy views agree"
    (Explore.energy_after_assign r)
    (Explore.energy_after_te r)

let test_baseline_is_out_of_the_box () =
  let r = run () in
  Alcotest.(check int) "baseline has no transfers" 0
    r.Explore.baseline.Cost.transfer_stall_cycles;
  Alcotest.(check int) "baseline pays no dma" 0
    r.Explore.baseline.Cost.dma_setup_cycles

let test_config_plumbing () =
  let config =
    { Assign.default_config with Assign.objective = Cost.Energy }
  in
  let r =
    Explore.run ~config (kernel ()) (Presets.two_level ~onchip_bytes:512 ())
  in
  Alcotest.(check bool) "energy objective no worse" true
    (r.Explore.after_assign.Cost.total_energy_pj
    <= r.Explore.baseline.Cost.total_energy_pj)

(* --- sweep ------------------------------------------------------------ *)

let test_sweep_points () =
  let sizes = [ 128; 512; 2048 ] in
  let points = Explore.sweep ~sizes (kernel ()) in
  Alcotest.(check (list int)) "one point per size" sizes
    (List.map (fun (p : Explore.sweep_point) -> p.Explore.onchip_bytes) points);
  (* The baseline does not depend on the scratchpad size. *)
  let baselines =
    List.map
      (fun (p : Explore.sweep_point) ->
        p.Explore.point_result.Explore.baseline.Cost.total_cycles)
      points
  in
  (match baselines with
  | b :: rest -> List.iter (Alcotest.(check int) "same baseline" b) rest
  | [] -> Alcotest.fail "no points")

let test_sweep_no_dma () =
  let points = Explore.sweep ~dma:false ~sizes:[ 512 ] (kernel ()) in
  match points with
  | [ p ] ->
    Alcotest.(check int) "no TE plans without DMA" 0
      (List.length p.Explore.point_result.Explore.te.Prefetch.plans)
  | _ -> Alcotest.fail "expected one point"

(* Everything a diverging worker could corrupt: the budget, the final
   breakdowns, the applied assignment steps and the promoted arrays. *)
let sweep_fingerprint points =
  List.map
    (fun (p : Explore.sweep_point) ->
      let r = p.Explore.point_result in
      ( p.Explore.onchip_bytes,
        r.Explore.after_assign,
        r.Explore.after_te,
        r.Explore.assign.Assign.steps,
        r.Explore.assign.Assign.mapping.Mhla_core.Mapping.array_layers ))
    points

let test_sweep_jobs_equality () =
  let sizes = [ 128; 256; 512; 1024 ] in
  let sequential = Explore.sweep ~jobs:1 ~sizes (kernel ()) in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs:1 = jobs:%d" jobs)
        true
        (sweep_fingerprint sequential
        = sweep_fingerprint (Explore.sweep ~jobs ~sizes (kernel ()))))
    [ 2; 4 ];
  Alcotest.(check bool) "jobs:1 = default jobs" true
    (sweep_fingerprint sequential
    = sweep_fingerprint (Explore.sweep ~sizes (kernel ())))

let test_sweep_more_jobs_than_sizes () =
  let sizes = [ 128; 512 ] in
  let points = Explore.sweep ~jobs:16 ~sizes (kernel ()) in
  Alcotest.(check (list int)) "one point per size, in order" sizes
    (List.map (fun (p : Explore.sweep_point) -> p.Explore.onchip_bytes)
       points)

let test_sweep_duplicate_sizes () =
  (* Duplicate and unsorted sizes collapse to one canonical ladder. *)
  let canonical = Explore.sweep ~sizes:[ 128; 512 ] (kernel ()) in
  let messy = Explore.sweep ~sizes:[ 512; 128; 512; 128 ] (kernel ()) in
  Alcotest.(check bool) "dedup + sort to the same points" true
    (sweep_fingerprint canonical = sweep_fingerprint messy)

(* --- pareto over budget vectors ---------------------------------------- *)

module Nd = Pareto.Nd

(* Everything a solve decides and counts: the breakdowns, the steps,
   the layout (placements and promoted arrays), the TE schedule, and the
   search's evaluation, probe, cache and staged-check counters. A solve
   state reused across points must reproduce all of them. *)
let result_fingerprint (r : Explore.result) =
  let a = r.Explore.assign in
  let m = a.Assign.mapping in
  ( (r.Explore.after_assign, r.Explore.after_te, a.Assign.steps),
    (m.Mhla_core.Mapping.placements, m.Mhla_core.Mapping.array_layers),
    r.Explore.te,
    (a.Assign.evaluations, a.Assign.probes, a.Assign.cache_hits,
     a.Assign.cache_misses, a.Assign.feasible_staged) )

let frontier_fingerprint frontier =
  List.map
    (fun p ->
      let pt = Nd.payload p in
      ( Nd.objectives p,
        pt.Explore.budgets,
        result_fingerprint pt.Explore.point_result ))
    (Nd.to_list frontier)

let check_stats_conserved (outcome : Explore.pareto_outcome) =
  let s = outcome.Explore.stats in
  Alcotest.(check int) "every grid point accounted for"
    s.Explore.grid_points
    (s.Explore.evaluated + s.Explore.pruned + s.Explore.deadline_skipped)

let test_pareto_matches_brute_force () =
  let program = kernel () in
  let axes = [ [ 256; 1024 ]; [ 512; 2048 ] ] in
  let outcome = Explore.pareto ~jobs:1 ~axes program in
  Alcotest.(check bool) "complete" false outcome.Explore.partial;
  check_stats_conserved outcome;
  Alcotest.(check int) "grid points" 4 outcome.Explore.stats.Explore.grid_points;
  let brute =
    Nd.of_list
      (List.map
         (fun budgets ->
           let r =
             Explore.run program (Presets.multi_level ~level_bytes:budgets ())
           in
           let p = { Explore.budgets; point_result = r } in
           Nd.point ~objectives:(Explore.pareto_objectives p) p)
         (Presets.budget_grid ~axes))
  in
  Alcotest.(check bool) "frontier equals the brute-force fold" true
    (frontier_fingerprint outcome.Explore.frontier
    = frontier_fingerprint brute)

(* Spans past SRAM energy saturation so the lower bound actually
   discards vectors — the jobs invariance must hold with live pruning,
   not just on grids where nothing is ever skipped. *)
let pruning_axes =
  [ [ 1024; 16384; 65536; 262144 ]; [ 2048; 32768; 131072; 524288 ] ]

let test_pareto_jobs_identical () =
  let program = kernel () in
  let sequential = Explore.pareto ~jobs:1 ~axes:pruning_axes program in
  Alcotest.(check bool) "sequential run prunes" true
    (sequential.Explore.stats.Explore.pruned > 0);
  check_stats_conserved sequential;
  List.iter
    (fun jobs ->
      let parallel = Explore.pareto ~jobs ~axes:pruning_axes program in
      check_stats_conserved parallel;
      Alcotest.(check bool)
        (Printf.sprintf "jobs:1 frontier = jobs:%d frontier" jobs)
        true
        (frontier_fingerprint sequential.Explore.frontier
        = frontier_fingerprint parallel.Explore.frontier))
    [ 2; 4 ]

let test_pareto_contains_run_results () =
  let program = kernel () in
  let outcome = Explore.pareto ~jobs:1 ~axes:pruning_axes program in
  List.iter
    (fun p ->
      let pt = Nd.payload p in
      let rerun =
        Explore.run program
          (Presets.multi_level ~level_bytes:pt.Explore.budgets ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "frontier point [%s] is exactly Explore.run there"
           (String.concat "+" (List.map string_of_int pt.Explore.budgets)))
        true
        (result_fingerprint pt.Explore.point_result
        = result_fingerprint rerun))
    (Nd.to_list outcome.Explore.frontier)

let test_pareto_deadline_returns_partial () =
  let calls = ref 0 in
  let checkpoint () =
    incr calls;
    if !calls > 2 then
      raise
        Mhla_util.Error.(Error (make Deadline ~context:"test" "expired"))
  in
  let outcome =
    Explore.pareto ~jobs:1 ~checkpoint
      ~axes:[ [ 128; 256; 512; 1024 ] ]
      (kernel ())
  in
  Alcotest.(check bool) "partial" true outcome.Explore.partial;
  check_stats_conserved outcome;
  Alcotest.(check bool) "some points were abandoned" true
    (outcome.Explore.stats.Explore.deadline_skipped > 0)

(* The paper-pareto workload's grid: every frontier point of a pareto
   and every point of a sweep, solved through a worker's shared state,
   equals a fresh [Explore.run] at that point, at one and two workers. *)
let paper_axes =
  [ [ 1024; 4096; 16384; 65536; 262144 ];
    [ 2048; 8192; 32768; 131072; 524288 ] ]

let apps () =
  List.map
    (fun (d : Mhla_apps.Defs.t) ->
      (d.Mhla_apps.Defs.name, Lazy.force d.Mhla_apps.Defs.program))
    Mhla_apps.Registry.all

let test_pareto_points_fresh_on_apps () =
  List.iter
    (fun (name, program) ->
      List.iter
        (fun jobs ->
          let outcome = Explore.pareto ~jobs ~axes:paper_axes program in
          List.iter
            (fun p ->
              let pt = Nd.payload p in
              let fresh =
                Explore.run program
                  (Presets.multi_level ~level_bytes:pt.Explore.budgets ())
              in
              let budgets =
                String.concat "," (List.map string_of_int pt.Explore.budgets)
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s -j %d [%s] = fresh run" name jobs budgets)
                true
                (result_fingerprint pt.Explore.point_result
                = result_fingerprint fresh))
            (Nd.to_list outcome.Explore.frontier))
        [ 1; 2 ])
    (apps ())

let test_sweep_points_fresh_on_apps () =
  let sizes = Presets.sweep_sizes ~min_bytes:128 ~max_bytes:16384 in
  List.iter
    (fun (name, program) ->
      List.iter
        (fun jobs ->
          List.iter
            (fun (p : Explore.sweep_point) ->
              let fresh =
                Explore.run program
                  (Presets.two_level ~onchip_bytes:p.Explore.onchip_bytes ())
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s -j %d %d B = fresh run" name jobs
                   p.Explore.onchip_bytes)
                true
                (result_fingerprint p.Explore.point_result
                = result_fingerprint fresh))
            (Explore.sweep ~jobs ~sizes program))
        [ 1; 2 ])
    (apps ())

let test_pareto_rejects_bad_axes () =
  let expect_invalid name f =
    match f () with
    | exception
        Mhla_util.Error.Error { kind = Mhla_util.Error.Invalid_input; _ } ->
      ()
    | (_ : Explore.pareto_outcome) ->
      Alcotest.failf "%s: expected an Invalid_input error" name
  in
  expect_invalid "no axes" (fun () ->
      Explore.pareto ~axes:[] (kernel ()));
  expect_invalid "empty axis" (fun () ->
      Explore.pareto ~axes:[ [ 256 ]; [] ] (kernel ()));
  expect_invalid "non-positive size" (fun () ->
      Explore.pareto ~axes:[ [ 0; 256 ] ] (kernel ()))

(* --- report ----------------------------------------------------------- *)

let test_report_rendering () =
  let r = run () in
  let summary = Report.summary ~name:"kernel" r in
  Alcotest.(check bool) "summary mentions the name" true
    (String.length summary > 40);
  let detailed = Report.detailed ~name:"kernel" r in
  Alcotest.(check bool) "detailed is long" true
    (String.length detailed > 400);
  let t = Report.figure2_table [ ("kernel", r) ] in
  let rendered = Mhla_util.Table.render t in
  Alcotest.(check bool) "figure2 has a data row" true
    (List.length (String.split_on_char '\n' rendered) >= 4);
  let t3 = Report.figure3_table [ ("kernel", r) ] in
  Alcotest.(check bool) "figure3 renders" true
    (String.length (Mhla_util.Table.render t3) > 0);
  let th = Report.headline_table [ ("kernel", r) ] in
  Alcotest.(check bool) "headline renders" true
    (String.length (Mhla_util.Table.render th) > 0);
  let points = Explore.sweep ~sizes:[ 128; 256 ] (kernel ()) in
  let ts = Report.sweep_table points in
  Alcotest.(check bool) "sweep renders" true
    (String.length (Mhla_util.Table.render ts) > 0)

let test_json_report () =
  let r = run () in
  let json =
    Mhla_util.Json.to_string (Report.result_to_json ~name:"kernel" r)
  in
  let contains needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length json && (String.sub json i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "has application" true
    (contains "\"application\":\"kernel\"");
  Alcotest.(check bool) "has design points" true
    (contains "\"after_te\"" && contains "\"ideal\"");
  Alcotest.(check bool) "has placements" true (contains "\"placements\"");
  Alcotest.(check bool) "has TE plans" true (contains "\"time_extensions\"");
  let sweep_json =
    Mhla_util.Json.to_string
      (Report.sweep_to_json (Explore.sweep ~sizes:[ 128 ] (kernel ())))
  in
  Alcotest.(check bool) "sweep json non-empty" true
    (String.length sweep_json > 100)

let test_pareto_report () =
  let outcome =
    Explore.pareto ~jobs:1 ~axes:[ [ 256; 1024 ]; [ 512; 2048 ] ] (kernel ())
  in
  let rendered = Mhla_util.Table.render (Report.pareto_table outcome) in
  Alcotest.(check bool) "pareto table has a data row" true
    (List.length (String.split_on_char '\n' rendered)
    >= 2 + Nd.size outcome.Explore.frontier);
  let json = Mhla_util.Json.to_string (Report.pareto_to_json outcome) in
  let contains needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length json && (String.sub json i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "has frontier" true (contains "\"frontier\"");
  Alcotest.(check bool) "has stats" true (contains "\"stats\"");
  Alcotest.(check bool) "complete run marked" true
    (contains "\"partial\":false")

let () =
  Alcotest.run "explore"
    [
      ( "flow",
        [
          Alcotest.test_case "design point ordering" `Quick
            test_design_point_ordering;
          Alcotest.test_case "TE energy invariant" `Quick
            test_te_energy_invariant;
          Alcotest.test_case "normalised views" `Quick test_normalised_views;
          Alcotest.test_case "baseline shape" `Quick
            test_baseline_is_out_of_the_box;
          Alcotest.test_case "config plumbing" `Quick
            test_config_plumbing;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "points" `Quick test_sweep_points;
          Alcotest.test_case "no dma" `Quick test_sweep_no_dma;
          Alcotest.test_case "jobs equality" `Quick test_sweep_jobs_equality;
          Alcotest.test_case "more jobs than sizes" `Quick
            test_sweep_more_jobs_than_sizes;
          Alcotest.test_case "duplicate sizes" `Quick
            test_sweep_duplicate_sizes;
          Alcotest.test_case "points = fresh runs on the apps" `Quick
            test_sweep_points_fresh_on_apps;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_pareto_matches_brute_force;
          Alcotest.test_case "jobs identical" `Quick
            test_pareto_jobs_identical;
          Alcotest.test_case "contains Explore.run results" `Quick
            test_pareto_contains_run_results;
          Alcotest.test_case "deadline returns partial" `Quick
            test_pareto_deadline_returns_partial;
          Alcotest.test_case "rejects bad axes" `Quick
            test_pareto_rejects_bad_axes;
          Alcotest.test_case "frontier = fresh runs on the apps" `Quick
            test_pareto_points_fresh_on_apps;
        ] );
      ( "report",
        [ Alcotest.test_case "rendering" `Quick test_report_rendering;
          Alcotest.test_case "json" `Quick test_json_report;
          Alcotest.test_case "pareto report" `Quick test_pareto_report ] );
    ]
