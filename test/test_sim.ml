(* Tests for the event-driven pipeline simulator and the analytic
   cross-check. *)

let invalid ?hint context message =
  Mhla_util.Error.(Error (make ?hint Invalid_input ~context message))

module Pipeline = Mhla_sim.Pipeline
module Faults = Mhla_sim.Faults
module Robustness = Mhla_sim.Robustness
module Crosscheck = Mhla_sim.Crosscheck
module Oracle = Mhla_gen.Oracle
module Assign = Mhla_core.Assign
module Explore = Mhla_core.Explore
module Prefetch = Mhla_core.Prefetch
module Build = Mhla_ir.Build
module Presets = Mhla_arch.Presets

let params ?(issues = 10) ?(transfer = 20) ?(compute = 30) ?(lookahead = 0)
    ?(setup = 0) () =
  {
    Pipeline.issues;
    bytes_per_issue = 0;
    transfer_cycles = transfer;
    compute_cycles = compute;
    lookahead;
    setup_cycles = setup;
  }

let run ?(channels = 1) p = Pipeline.run ~channels p

let test_synchronous_stalls_fully () =
  let p = params ~issues:10 ~transfer:20 ~compute:30 ~lookahead:0 () in
  let o = run p in
  Alcotest.(check int) "every issue stalls" 200 o.Pipeline.stall_cycles;
  Alcotest.(check int) "analytic agrees exactly" 200 (Pipeline.analytic_stall p);
  Alcotest.(check int) "makespan" (10 * (20 + 30)) o.Pipeline.total_cycles

let test_single_buffer_hides_when_compute_dominates () =
  let p = params ~issues:50 ~transfer:20 ~compute:30 ~lookahead:1 () in
  let o = run p in
  Alcotest.(check int) "analytic says zero" 0 (Pipeline.analytic_stall p);
  (* Only the cold start (first transfer) can stall. *)
  Alcotest.(check bool) "only cold-start stall" true
    (o.Pipeline.stall_cycles <= 20)

let test_transfer_dominates_compute () =
  let p = params ~issues:50 ~transfer:50 ~compute:30 ~lookahead:1 () in
  let o = run p in
  (* Steady state: each iteration waits transfer - compute = 20. *)
  Alcotest.(check int) "analytic residual" (50 * 20) (Pipeline.analytic_stall p);
  Alcotest.(check bool) "simulated close to analytic" true
    (abs (o.Pipeline.stall_cycles - 1000) <= 2 * 50)

let test_deep_lookahead () =
  let p = params ~issues:40 ~transfer:100 ~compute:30 ~lookahead:3 () in
  (* The tool's arithmetic assumes the channel keeps up... *)
  Alcotest.(check int) "tool arithmetic: 100 - 90 per issue" (40 * 10)
    (Pipeline.analytic_stall p);
  (* ...but a single serial channel saturates: the period is the
     transfer time and each issue still waits transfer - compute. *)
  Alcotest.(check int) "steady state: 100 - 30 per issue" (40 * 70)
    (Pipeline.steady_state_stall ~channels:1 p);
  let o = run p in
  Alcotest.(check bool) "simulated matches steady state within slack" true
    (abs (o.Pipeline.stall_cycles - Pipeline.steady_state_stall ~channels:1 p)
    <= 4 * 100)

let test_zero_transfer () =
  let p = params ~transfer:0 () in
  let o = run p in
  Alcotest.(check int) "no stalls" 0 o.Pipeline.stall_cycles;
  Alcotest.(check int) "pure compute" 300 o.Pipeline.total_cycles

let test_setup_charged_to_cpu () =
  let p = params ~issues:10 ~transfer:0 ~compute:10 ~setup:5 () in
  let o = run p in
  Alcotest.(check int) "setup adds to the makespan" (10 * 15)
    o.Pipeline.total_cycles

let test_dma_busy_accounting () =
  let p = params ~issues:7 ~transfer:13 () in
  let o = run p in
  Alcotest.(check int) "dma busy = issues x transfer" (7 * 13)
    o.Pipeline.dma_busy_cycles

let test_multi_channel_recovers_deep_lookahead () =
  (* With as many channels as lookahead buffers, deep prefetch works:
     three 100-cycle transfers overlap. The work-conservation bound is
     ceil(100/3) - 30 = 4 per issue; the single-channel pipeline would
     stall 70 per issue. The simulation must land in between and far
     below the single-channel case. *)
  let p = params ~issues:40 ~transfer:100 ~compute:30 ~lookahead:3 () in
  let lower = Pipeline.steady_state_stall ~channels:3 p in
  (* overlap = min (3+1) 3 = 3: floor(100/3) - 30 = 3 per issue. *)
  Alcotest.(check int) "lower bound: floor(100/3) - 30 = 3 per issue"
    (40 * 3) lower;
  let single = Pipeline.steady_state_stall ~channels:1 p in
  let o = run ~channels:3 p in
  Alcotest.(check bool) "above the work-conservation bound" true
    (o.Pipeline.stall_cycles + 400 >= lower);
  Alcotest.(check bool) "well below the single-channel stall" true
    (o.Pipeline.stall_cycles < single / 2)

let test_channels_never_hurt () =
  let stall ch =
    (run ~channels:ch
       (params ~issues:50 ~transfer:80 ~compute:30 ~lookahead:2 ()))
      .Pipeline.stall_cycles
  in
  Alcotest.(check bool) "2 channels <= 1" true (stall 2 <= stall 1);
  Alcotest.(check bool) "3 channels <= 2" true (stall 3 <= stall 2)

let test_param_validation () =
  Alcotest.check_raises "issues 0"
    (invalid "Pipeline.run" "issues must be positive (got 0)") (fun () ->
      ignore (run (params ~issues:0 ())));
  Alcotest.check_raises "negative"
    (invalid "Pipeline.run" "negative parameter") (fun () ->
      ignore (run (params ~transfer:(-1) ())));
  Alcotest.check_raises "zero channels"
    (invalid "Pipeline.run" "channels must be >= 1 (got 0)") (fun () ->
      ignore (run ~channels:0 (params ())))

let prop_simulated_within_cold_start_bound =
  QCheck2.Test.make
    ~name:"pipeline: simulated stalls within the steady-state bracket"
    ~count:400
    QCheck2.Gen.(
      let p =
        map3
          (fun issues transfer (compute, lookahead, setup) ->
            params ~issues ~transfer ~compute ~lookahead ~setup ())
          (int_range 1 60) (int_range 0 80)
          (triple (int_range 0 80) (int_range 0 4) (int_range 0 10))
      in
      pair p (int_range 1 4))
    (fun (p, channels) ->
      let o = run ~channels p in
      let bound =
        (p.Pipeline.lookahead + 1)
        * (p.Pipeline.transfer_cycles + p.Pipeline.setup_cycles)
      in
      let upper = Pipeline.steady_state_stall ~channels:1 p in
      if channels = 1 then abs (o.Pipeline.stall_cycles - upper) <= bound
      else begin
        (* Multi-channel: bracket between the work-conservation lower
           bound and the single-channel upper bound. *)
        let lower = Pipeline.steady_state_stall ~channels p in
        o.Pipeline.stall_cycles + bound >= lower
        && o.Pipeline.stall_cycles <= upper + bound
      end)

let prop_lookahead_monotone =
  QCheck2.Test.make ~name:"pipeline: more lookahead never adds stalls"
    ~count:200
    QCheck2.Gen.(
      pair (int_range 1 40)
        (pair (int_range 0 60) (int_range 0 60)))
    (fun (issues, (transfer, compute)) ->
      let stall k =
        (run (params ~issues ~transfer ~compute ~lookahead:k ()))
          .Pipeline.stall_cycles
      in
      stall 1 <= stall 0 && stall 2 <= stall 1 && stall 3 <= stall 2)

let prop_transfer_monotone =
  QCheck2.Test.make ~name:"pipeline: longer transfers never reduce stalls"
    ~count:200
    QCheck2.Gen.(
      pair (int_range 1 40)
        (pair (int_range 0 60) (int_range 0 3)))
    (fun (issues, (compute, lookahead)) ->
      let stall t =
        (run (params ~issues ~transfer:t ~compute ~lookahead ()))
          .Pipeline.stall_cycles
      in
      stall 10 <= stall 20 && stall 20 <= stall 40 && stall 40 <= stall 41)

(* --- fault injection --------------------------------------------------- *)

let gen_params =
  QCheck2.Gen.(
    let p =
      map3
        (fun issues transfer (compute, lookahead, setup) ->
          params ~issues ~transfer ~compute ~lookahead ~setup ())
        (int_range 1 60) (int_range 0 80)
        (triple (int_range 0 80) (int_range 0 4) (int_range 0 10))
    in
    pair p (int_range 1 4))

(* [Pipeline.run] is [run_faulty Faults.none] by definition; what is
   left to check is that the zero model injects nothing. *)
let test_zero_fault_equals_run () =
  List.iter
    (fun (p, channels) ->
      let f = Pipeline.run_faulty Faults.none ~channels p in
      Alcotest.(check int) "no retries" 0 f.Pipeline.retries;
      Alcotest.(check int) "no fallbacks" 0 f.Pipeline.fallbacks;
      Alcotest.(check int) "no failed attempts" 0 f.Pipeline.failed_attempts;
      Alcotest.(check int) "no jitter" 0 f.Pipeline.jitter_total_cycles)
    [
      (params (), 1);
      (params ~issues:50 ~transfer:80 ~compute:30 ~lookahead:2 ~setup:5 (), 2);
      (params ~issues:40 ~transfer:100 ~compute:30 ~lookahead:3 (), 3);
    ]

let prop_zero_fault_identity =
  QCheck2.Test.make
    ~name:"pipeline: run_faulty under Faults.none injects nothing"
    ~count:300 gen_params
    (fun (p, channels) ->
      let f = Pipeline.run_faulty Faults.none ~channels p in
      f.Pipeline.retries = 0 && f.Pipeline.fallbacks = 0
      && f.Pipeline.failed_attempts = 0
      && f.Pipeline.jitter_total_cycles = 0)

let prop_jitter_never_helps =
  QCheck2.Test.make
    ~name:"pipeline: jitter-only faults never reduce stalls" ~count:200
    QCheck2.Gen.(pair gen_params (pair (int_range 0 30) (int_range 0 100)))
    (fun ((p, channels), (max_extra, seed)) ->
      let f =
        Faults.make
          ~jitter:(Faults.Uniform { max_extra_cycles = max_extra })
          ~seed:(Int64.of_int seed) ()
      in
      let faulty = Pipeline.run_faulty f ~channels p in
      faulty.Pipeline.fallbacks = 0
      && faulty.Pipeline.fault_result.Pipeline.stall_cycles
         >= (run ~channels p).Pipeline.stall_cycles)

let jittery seed =
  Faults.make
    ~jitter:(Faults.Uniform { max_extra_cycles = 16 })
    ~failure_permille:200 ~seed ()

let test_faulty_reproducible () =
  let p = params ~issues:200 ~transfer:40 ~compute:30 ~lookahead:2 ~setup:5 () in
  let a = Pipeline.run_faulty (jittery 7L) ~channels:2 p in
  let b = Pipeline.run_faulty (jittery 7L) ~channels:2 p in
  Alcotest.(check bool) "same seed, same trace" true (a = b);
  let c = Pipeline.run_faulty (jittery 8L) ~channels:2 p in
  Alcotest.(check bool) "different seed, different trace" true (a <> c);
  Alcotest.(check bool) "faults actually injected" true
    (a.Pipeline.failed_attempts > 0 && a.Pipeline.retries > 0);
  Alcotest.(check bool) "stalls stay finite and sane" true
    (a.Pipeline.fault_result.Pipeline.stall_cycles >= 0
    && a.Pipeline.fault_result.Pipeline.stall_cycles
       < a.Pipeline.fault_result.Pipeline.total_cycles)

let test_fallback_on_exhaustion () =
  let p = params ~issues:10 ~transfer:20 ~compute:30 ~lookahead:1 () in
  let f = Faults.make ~failure_permille:1000 ~max_retries:2 ~seed:1L () in
  let r = Pipeline.run_faulty f ~channels:1 p in
  Alcotest.(check int) "every transfer exhausts its retries" 10
    r.Pipeline.fallbacks;
  Alcotest.(check int) "three attempts each" 30 r.Pipeline.failed_attempts;
  Alcotest.(check int) "two retries each" 20 r.Pipeline.retries;
  Alcotest.(check int) "each iteration refetches synchronously" (10 * 20)
    r.Pipeline.fault_result.Pipeline.stall_cycles

let test_deadline_fallback () =
  (* No lookahead: every iteration would stall the full 50-cycle
     transfer; a 10-cycle patience refetches synchronously instead. *)
  let p = params ~issues:5 ~transfer:50 ~compute:10 ~lookahead:0 () in
  let f = Faults.make ~deadline_patience:10 ~seed:0L () in
  let r = Pipeline.run_faulty f ~channels:1 p in
  Alcotest.(check int) "every iteration abandons the late transfer" 5
    r.Pipeline.fallbacks

(* --- crosscheck against the real tool --------------------------------- *)

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

let test_crosscheck_agrees () =
  let r = Explore.run (kernel ()) (Presets.two_level ~onchip_bytes:512 ()) in
  let m = r.Explore.assign.Assign.mapping in
  let checks = Crosscheck.pipeline_checks m r.Explore.te in
  Alcotest.(check bool) "some BTs checked" true (List.length checks > 0);
  List.iter
    (fun c -> Alcotest.(check bool) "agrees" true (Crosscheck.agrees c))
    checks;
  Alcotest.(check bool) "incremental engine never drifts" true
    (Oracle.check_engine m).Oracle.engine_consistent

let test_check_engine_kernel_and_apps () =
  let consistent name (m : Mhla_core.Mapping.t) =
    let c = Oracle.check_engine m in
    Alcotest.(check bool) (name ^ ": consistent under churn") true
      c.Oracle.engine_consistent;
    Alcotest.(check bool) (name ^ ": objectives bit-equal") true
      (Float.equal c.Oracle.engine_objective c.Oracle.oracle_objective)
  in
  let r = Explore.run (kernel ()) (Presets.two_level ~onchip_bytes:512 ()) in
  consistent "kernel" r.Explore.assign.Assign.mapping;
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.small in
      let r = Explore.run program (Presets.two_level ~onchip_bytes:256 ()) in
      consistent app.Mhla_apps.Defs.name r.Explore.assign.Assign.mapping)
    Mhla_apps.Registry.all

let test_robustness_report () =
  let r = Explore.run (kernel ()) (Presets.two_level ~onchip_bytes:512 ()) in
  let faults = jittery 42L in
  let report =
    Robustness.analyze ~trials:4 ~faults r.Explore.assign.Assign.mapping
      r.Explore.te
  in
  Alcotest.(check bool) "has plans" true
    (List.length report.Robustness.plans > 0);
  Alcotest.(check bool) "zero-fault consistent" true
    report.Robustness.all_zero_fault_consistent;
  let again =
    Robustness.analyze ~trials:4 ~faults r.Explore.assign.Assign.mapping
      r.Explore.te
  in
  Alcotest.(check bool) "reproducible" true (report = again);
  List.iter
    (fun p ->
      Alcotest.(check bool) "worst >= fault-free" true
        (p.Robustness.worst_stall_cycles
        >= p.Robustness.fault_free.Pipeline.stall_cycles);
      Alcotest.(check bool) "inflation >= 0" true
        (p.Robustness.worst_inflation >= 0.))
    report.Robustness.plans;
  ignore (Mhla_util.Json.to_string (Robustness.to_json report));
  ignore (Mhla_util.Table.render (Robustness.to_table report))

(* The analytic model assumes the DMA keeps up with the lookahead; a
   hand-hostile plan (deep extension, transfer time many times the
   compute it hides behind) saturates the channels so the simulated
   stalls drift far outside the cold-start bound — and the crosscheck
   must say so. It is also the stream, and the only one, whose
   robustness slack margin goes negative: the fuzz oracle's [xval]
   check is what catches a negative margin. *)
let test_crosscheck_catches_saturation () =
  let r = Explore.run (kernel ()) (Presets.two_level ~onchip_bytes:512 ()) in
  let m = r.Explore.assign.Assign.mapping in
  let candidates =
    List.filter
      (fun (p : Prefetch.plan) ->
        p.Prefetch.freedom <> []
        && p.Prefetch.bt.Mhla_core.Mapping.issues >= 32)
      r.Explore.te.Prefetch.plans
  in
  match candidates with
  | [] -> Alcotest.fail "kernel schedule has no extendable plan"
  | plan :: _ ->
    let iter = List.hd plan.Prefetch.freedom in
    let c = Mhla_core.Cost.loop_iteration_cycles m ~iter in
    let hostile =
      { plan with Prefetch.bt_time = 10 * c; extra_buffers = 3 }
    in
    let schedule = { Prefetch.plans = [ hostile ] } in
    let checks = Crosscheck.pipeline_checks m schedule in
    Alcotest.(check int) "one check" 1 (List.length checks);
    let disagreements =
      List.filter (fun c -> not (Crosscheck.agrees c)) checks
    in
    Alcotest.(check int) "flagged as disagreement" 1
      (List.length disagreements);
    List.iter
      (fun c ->
        Alcotest.(check bool) "outside the bound" false
          (Crosscheck.within_bound c);
        Alcotest.(check bool) "zero-fault machinery still consistent" true
          c.Crosscheck.zero_fault_consistent)
      disagreements;
    let rob = Robustness.analyze ~trials:1 ~faults:Faults.none m schedule in
    Alcotest.(check (list string)) "negative slack = disagreement"
      (List.map (fun c -> c.Crosscheck.check_id) disagreements)
      (List.filter_map
         (fun (p : Robustness.plan_robustness) ->
           if p.Robustness.slack_margin_cycles < 0 then
             Some p.Robustness.check_id
           else None)
         rob.Robustness.plans)

let test_crosscheck_all_apps () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.small in
      let h = Presets.two_level ~onchip_bytes:256 () in
      let r = Explore.run program h in
      let m = r.Explore.assign.Assign.mapping in
      let name = app.Mhla_apps.Defs.name in
      Alcotest.(check bool) (name ^ ": agreement") true
        (List.for_all Crosscheck.agrees
           (Crosscheck.pipeline_checks m r.Explore.te));
      List.iter
        (fun (p : Robustness.plan_robustness) ->
          Alcotest.(check bool)
            (name ^ ": " ^ p.Robustness.check_id ^ " slack >= 0")
            true
            (p.Robustness.slack_margin_cycles >= 0))
        (Robustness.analyze ~trials:1 ~faults:Faults.none m r.Explore.te)
          .Robustness.plans)
    Mhla_apps.Registry.all

(* EXT-FAULT pin: the robustness report of every app's small program on
   the app's own budget, under the default [mhla robustness] fault model
   (jitter 8, failure 20 permille, 3 retries, seed 42), digested. A
   change to the fault engine, to how a TE plan becomes a pipeline
   stream, or to the report rendering shows up as a changed digest. *)
let robustness_pins =
  [
    ("motion_estimation", "ff20a85b4558b3809052bcbd14112d02");
    ("qsdpcm", "7caed1b8e2852a68004c37e936d61fc7");
    ("cavity_detector", "787b780edf2b211dc7dce3472afc6ded");
    ("wavelet_2d", "19e934662667326936ebfbe49b2dac35");
    ("jpeg_encoder", "62052d1f433b40d56005bb7f47db2e7a");
    ("edge_detection", "2133547dd8ab8d4b41c594d4bb7fa53b");
    ("adpcm_coder", "74388e62cbe31da7170c68f34850f756");
    ("mp3_filterbank", "d1c2685552c1ef44b8ebc1b59cc81705");
    ("voice_compression", "0ac2548f38c6397520bdba95dec5414a");
  ]

let test_robustness_pinned () =
  let faults =
    Faults.make
      ~jitter:(Faults.Uniform { max_extra_cycles = 8 })
      ~failure_permille:20 ~max_retries:3 ~seed:42L ()
  in
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.small in
      let h =
        Presets.two_level ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
      in
      let r = Explore.run program h in
      let report =
        Robustness.analyze ~trials:4 ~faults r.Explore.assign.Assign.mapping
          r.Explore.te
      in
      Alcotest.(check string) app.Mhla_apps.Defs.name
        (List.assoc app.Mhla_apps.Defs.name robustness_pins)
        (Digest.to_hex
           (Digest.string
              (Mhla_util.Json.to_string (Robustness.to_json report)))))
    Mhla_apps.Registry.all

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "pipeline",
        [
          Alcotest.test_case "synchronous" `Quick test_synchronous_stalls_fully;
          Alcotest.test_case "hidden by compute" `Quick
            test_single_buffer_hides_when_compute_dominates;
          Alcotest.test_case "transfer bound" `Quick
            test_transfer_dominates_compute;
          Alcotest.test_case "deep lookahead" `Quick test_deep_lookahead;
          Alcotest.test_case "zero transfer" `Quick test_zero_transfer;
          Alcotest.test_case "setup cost" `Quick test_setup_charged_to_cpu;
          Alcotest.test_case "dma busy" `Quick test_dma_busy_accounting;
          Alcotest.test_case "multi-channel lookahead" `Quick
            test_multi_channel_recovers_deep_lookahead;
          Alcotest.test_case "channels never hurt" `Quick
            test_channels_never_hurt;
          Alcotest.test_case "validation" `Quick test_param_validation;
          qc prop_simulated_within_cold_start_bound;
          qc prop_lookahead_monotone;
          qc prop_transfer_monotone;
        ] );
      ( "faults",
        [
          Alcotest.test_case "zero model is identity" `Quick
            test_zero_fault_equals_run;
          Alcotest.test_case "seeded reproducibility" `Quick
            test_faulty_reproducible;
          Alcotest.test_case "retry exhaustion falls back" `Quick
            test_fallback_on_exhaustion;
          Alcotest.test_case "deadline fallback" `Quick test_deadline_fallback;
          Alcotest.test_case "robustness report" `Quick test_robustness_report;
          Alcotest.test_case "robustness pinned on the nine apps" `Quick
            test_robustness_pinned;
          qc prop_zero_fault_identity;
          qc prop_jitter_never_helps;
        ] );
      ( "crosscheck",
        [
          Alcotest.test_case "kernel agrees" `Quick test_crosscheck_agrees;
          Alcotest.test_case "engine check, kernel and apps" `Quick
            test_check_engine_kernel_and_apps;
          Alcotest.test_case "saturation flagged" `Quick
            test_crosscheck_catches_saturation;
          Alcotest.test_case "all apps agree" `Quick test_crosscheck_all_apps;
        ] );
    ]
