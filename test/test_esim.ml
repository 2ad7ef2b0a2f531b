(* Tests for the discrete-event cycle-level simulator (EXT-ESIM): the
   neutral-configuration equivalence with the analytic Pipeline replay,
   event-queue determinism, the bounded prefetch queue, demand-miss
   invalidation, shared-bus contention, and the analytic-vs-event
   cross-validation over the nine applications. *)

let invalid ?hint context message =
  Mhla_util.Error.(Error (make ?hint Invalid_input ~context message))

module Event = Mhla_sim.Event
module Pipeline = Mhla_sim.Pipeline
module Faults = Mhla_sim.Faults
module Crosscheck = Mhla_sim.Crosscheck
module Assign = Mhla_core.Assign
module Explore = Mhla_core.Explore

let stream ?(issues = 10) ?(bytes = 0) ?(transfer = 20) ?(compute = 30)
    ?(lookahead = 0) ?(setup = 0) () =
  {
    Event.issues;
    bytes_per_issue = bytes;
    transfer_cycles = transfer;
    compute_cycles = compute;
    lookahead;
    setup_cycles = setup;
  }

let params_of ~channels (s : Event.stream) =
  {
    Pipeline.issues = s.Event.issues;
    transfer_cycles = s.Event.transfer_cycles;
    compute_cycles = s.Event.compute_cycles;
    lookahead = s.Event.lookahead;
    setup_cycles = s.Event.setup_cycles;
    channels;
  }

let outcome_triple (o : Event.outcome) =
  (o.Event.total_cycles, o.Event.stall_cycles, o.Event.dma_busy_cycles)

let pipeline_triple (o : Pipeline.outcome) =
  (o.Pipeline.total_cycles, o.Pipeline.stall_cycles, o.Pipeline.dma_busy_cycles)

let triple = Alcotest.(triple int int int)

(* --- neutral configuration ≡ analytic pipeline ------------------------- *)

(* The hand-checked micro-program of the Pipeline suite: 10 issues of a
   20-cycle transfer against 30 cycles of compute. Synchronously every
   issue stalls the full transfer; with one buffer of lookahead the
   compute hides everything but the cold start. *)
let test_neutral_hand_checked () =
  let s = stream ~issues:10 ~transfer:20 ~compute:30 ~lookahead:0 () in
  let o = Event.run (Event.neutral ~channels:1) s in
  Alcotest.(check int) "every issue stalls" 200 o.Event.stall_cycles;
  Alcotest.(check int) "makespan" (10 * (20 + 30)) o.Event.total_cycles;
  Alcotest.(check int) "dma busy" (10 * 20) o.Event.dma_busy_cycles;
  let s1 = { s with Event.lookahead = 1 } in
  let o1 = Event.run (Event.neutral ~channels:1) s1 in
  Alcotest.(check int) "one buffer leaves only the cold start" 20
    o1.Event.stall_cycles;
  Alcotest.check triple "lookahead 0 equals Pipeline.run"
    (pipeline_triple (Pipeline.run (params_of ~channels:1 s)))
    (outcome_triple o);
  Alcotest.check triple "lookahead 1 equals Pipeline.run"
    (pipeline_triple (Pipeline.run (params_of ~channels:1 s1)))
    (outcome_triple o1)

let test_neutral_equivalence_grid () =
  List.iter
    (fun issues ->
      List.iter
        (fun transfer ->
          List.iter
            (fun compute ->
              List.iter
                (fun lookahead ->
                  List.iter
                    (fun setup ->
                      List.iter
                        (fun channels ->
                          let s =
                            stream ~issues ~transfer ~compute ~lookahead
                              ~setup ()
                          in
                          let o =
                            Event.run (Event.neutral ~channels) s
                          in
                          let p =
                            Pipeline.run (params_of ~channels s)
                          in
                          Alcotest.check triple
                            (Fmt.str
                               "i%d t%d c%d l%d s%d ch%d equals pipeline"
                               issues transfer compute lookahead setup
                               channels)
                            (pipeline_triple p) (outcome_triple o))
                        [ 1; 2; 3 ])
                    [ 0; 5 ])
                [ 0; 1; 3; 7 ])
            [ 0; 10; 30 ])
        [ 0; 20; 100 ])
    [ 1; 2; 10; 40 ]

let prop_neutral_equivalence =
  QCheck2.Test.make ~count:300 ~name:"neutral event sim == Pipeline.run"
    QCheck2.Gen.(
      tup6 (1 -- 60) (0 -- 120) (0 -- 60) (0 -- 8) (0 -- 12) (1 -- 4))
    (fun (issues, transfer, compute, lookahead, setup, channels) ->
      let s = stream ~issues ~transfer ~compute ~lookahead ~setup () in
      outcome_triple (Event.run (Event.neutral ~channels) s)
      = pipeline_triple (Pipeline.run (params_of ~channels s)))

(* --- determinism ------------------------------------------------------- *)

let hostile =
  {
    (Event.neutral ~channels:3) with
    Event.queue_depth = 2;
    shared_bus = true;
    invalidate_on_miss = true;
    arbitration = Event.Round_robin;
    waitstates =
      Some { Event.first_cycles = 6; seq_cycles = 2; beat_bytes = 8 };
  }

let test_determinism_same_stream () =
  let s =
    stream ~issues:40 ~bytes:64 ~transfer:50 ~compute:10 ~lookahead:3
      ~setup:4 ()
  in
  let a = Event.run hostile s in
  let b = Event.run hostile s in
  Alcotest.(check bool) "same stream, identical outcome" true (a = b);
  Alcotest.(check bool) "the hostile config contends" true
    (a.Event.bus_wait_cycles > 0 && a.Event.deferred_issues > 0)

(* The event simulator carries no fault model: faults are
   Pipeline.run_faulty's alone, and under Faults.none that engine must
   replay exactly what the neutral event simulation measures. *)
let test_zero_faults_inert () =
  let s = stream ~issues:25 ~transfer:40 ~compute:15 ~lookahead:2 ~setup:3 () in
  let plain = Event.run (Event.neutral ~channels:2) s in
  let f = Pipeline.run_faulty Faults.none (params_of ~channels:2 s) in
  Alcotest.check triple "Faults.none adds nothing" (outcome_triple plain)
    (pipeline_triple f.Pipeline.fault_result);
  Alcotest.(check int) "no retries" 0 f.Pipeline.retries;
  Alcotest.(check int) "no fallbacks" 0 f.Pipeline.fallbacks

let test_domain_pool_determinism () =
  let streams =
    List.init 16 (fun i ->
        stream ~issues:(5 + i)
          ~bytes:(16 * (i + 1))
          ~transfer:(10 + (7 * i))
          ~compute:(3 + (5 * (i mod 4)))
          ~lookahead:(i mod 5) ~setup:(i mod 3) ())
  in
  let simulate s = Event.run hostile s in
  let serial = Mhla_util.Domain_pool.map ~jobs:1 simulate streams in
  let fanned = Mhla_util.Domain_pool.map ~jobs:4 simulate streams in
  Alcotest.(check bool) "jobs:1 == jobs:4" true (serial = fanned)

(* --- the bounded prefetch queue ---------------------------------------- *)

let test_queue_depth_bounds_lookahead () =
  let s = stream ~issues:30 ~transfer:20 ~compute:30 ~lookahead:4 ~setup:2 () in
  let deep = Event.run (Event.neutral ~channels:2) s in
  let shallow =
    Event.run { (Event.neutral ~channels:2) with Event.queue_depth = 2 } s
  in
  Alcotest.(check bool) "issues beyond the buffer are deferred" true
    (shallow.Event.deferred_issues > 0);
  Alcotest.(check bool) "a shallow buffer can only hurt" true
    (shallow.Event.stall_cycles >= deep.Event.stall_cycles);
  Alcotest.(check int) "a deep buffer never defers" 0
    deep.Event.deferred_issues

let test_queue_depth_one_is_nearly_synchronous () =
  let s = stream ~issues:20 ~transfer:50 ~compute:5 ~lookahead:3 () in
  let o =
    Event.run { (Event.neutral ~channels:1) with Event.queue_depth = 1 } s
  in
  let sync = Event.run (Event.neutral ~channels:1) { s with Event.lookahead = 0 } in
  (* One slot still pipelines one transfer ahead, so it can only do as
     well as lookahead 1 and at least as well as no prefetch at all. *)
  Alcotest.(check bool) "no better than one buffer" true
    (o.Event.stall_cycles
    >= (Event.run (Event.neutral ~channels:1) { s with Event.lookahead = 1 })
         .Event.stall_cycles);
  Alcotest.(check bool) "no worse than synchronous" true
    (o.Event.stall_cycles <= sync.Event.stall_cycles)

(* --- invalidation on demand miss --------------------------------------- *)

let test_invalidation_on_demand_miss () =
  (* transfer >> compute with one channel: every consume misses, so
     each miss flushes the queued lookahead and the stream thrashes —
     the flushes must be visible and costly. *)
  let s = stream ~issues:20 ~transfer:60 ~compute:5 ~lookahead:3 ~setup:2 () in
  let keep = Event.run (Event.neutral ~channels:1) s in
  let flush =
    Event.run
      { (Event.neutral ~channels:1) with Event.invalidate_on_miss = true }
      s
  in
  Alcotest.(check bool) "misses invalidate queued prefetches" true
    (flush.Event.invalidated_prefetches > 0);
  Alcotest.(check bool) "thrash is never faster" true
    (flush.Event.total_cycles >= keep.Event.total_cycles);
  Alcotest.(check int) "no invalidation without the flag" 0
    keep.Event.invalidated_prefetches

let test_no_invalidation_when_prefetch_keeps_up () =
  (* The cold-start consume is itself a demand miss, so for the stream
     never to flush the very first transfer must land inside the
     priming setups: transfer 2 < 2 * setup 5. After that compute 50
     dwarfs transfer 2, so every consume hits. *)
  let s = stream ~issues:20 ~transfer:2 ~compute:50 ~lookahead:2 ~setup:5 () in
  let o =
    Event.run
      { (Event.neutral ~channels:1) with Event.invalidate_on_miss = true }
      s
  in
  Alcotest.(check int) "hits never flush" 0 o.Event.invalidated_prefetches;
  Alcotest.(check int) "hits never stall" 0 o.Event.stall_cycles;
  Alcotest.(check int) "hits never demand-fetch" 0 o.Event.demand_fetches

(* --- shared-bus contention --------------------------------------------- *)

let test_shared_bus_serialises_channels () =
  let s = stream ~issues:30 ~transfer:40 ~compute:10 ~lookahead:3 ~setup:1 () in
  let split = Event.run (Event.neutral ~channels:4) s in
  let shared =
    Event.run { (Event.neutral ~channels:4) with Event.shared_bus = true } s
  in
  Alcotest.(check bool) "contention is accounted" true
    (shared.Event.bus_wait_cycles > 0);
  Alcotest.(check bool) "a shared bus can only slow the stream" true
    (shared.Event.total_cycles >= split.Event.total_cycles);
  Alcotest.(check int) "independent ports never wait" 0
    split.Event.bus_wait_cycles;
  (* One bus means channel count stops mattering: the shared-bus run
     must degrade to (at best) the single-channel throughput. *)
  let single = Event.run (Event.neutral ~channels:1) s in
  Alcotest.(check bool) "shared bus >= single channel stalls" true
    (shared.Event.stall_cycles >= single.Event.stall_cycles)

(* --- waitstates -------------------------------------------------------- *)

let test_waitstate_latency () =
  let cfg =
    {
      (Event.neutral ~channels:1) with
      Event.waitstates =
        Some { Event.first_cycles = 10; seq_cycles = 2; beat_bytes = 8 };
    }
  in
  Alcotest.(check int) "64 bytes = 10 + 2*8" 26
    (Event.transfer_latency cfg (stream ~bytes:64 ()));
  Alcotest.(check int) "1 byte rounds up to one beat" 12
    (Event.transfer_latency cfg (stream ~bytes:1 ()));
  Alcotest.(check int) "no table falls back to the nominal time" 20
    (Event.transfer_latency (Event.neutral ~channels:1) (stream ~transfer:20 ()))

let test_of_hierarchy_matches_cost_model () =
  (* The waitstate table derived from a preset hierarchy must give
     every solved block transfer the same latency the cost model's
     bt_cycles_per_issue charges — checked through check_event's
     per-plan tables on a real solve below. Here: the config picks up
     the DMA's channel count. *)
  let h = Mhla_arch.Presets.two_level ~onchip_bytes:1024 () in
  let cfg = Event.of_hierarchy h in
  Alcotest.(check int) "channels from the DMA preset" 2 cfg.Event.channels;
  Alcotest.(check bool) "waitstates installed" true
    (cfg.Event.waitstates <> None)

(* --- validation -------------------------------------------------------- *)

let test_validation () =
  Alcotest.check_raises "zero channels"
    (invalid "Event.run" "channels must be >= 1 (got 0)") (fun () ->
      ignore (Event.run (Event.neutral ~channels:0) (stream ())));
  Alcotest.check_raises "zero queue depth"
    (invalid "Event.run" "queue depth must be >= 1 (got 0)") (fun () ->
      ignore
        (Event.run
           { (Event.neutral ~channels:1) with Event.queue_depth = 0 }
           (stream ())));
  Alcotest.check_raises "no issues"
    (invalid "Event.run" "issues must be positive (got 0)") (fun () ->
      ignore (Event.run (Event.neutral ~channels:1) (stream ~issues:0 ())));
  Alcotest.check_raises "bad waitstates"
    (invalid "Event.run" "beat bytes must be >= 1 (got 0)") (fun () ->
      ignore
        (Event.run
           {
             (Event.neutral ~channels:1) with
             Event.waitstates =
               Some { Event.first_cycles = 1; seq_cycles = 1; beat_bytes = 0 };
           }
           (stream ())))

(* Every busy cycle is a burst: channel occupancy plus one transfer
   latency per demand fetch, even when flushes, deferrals and bus waits
   reshuffle the stream. *)
let test_hostile_stream_accounts () =
  let s =
    stream ~issues:50 ~bytes:64 ~transfer:30 ~compute:10 ~lookahead:3
      ~setup:2 ()
  in
  let cfg = { hostile with Event.channels = 1 } in
  let o = Event.run cfg s in
  Alcotest.(check bool) "demand fetches happened" true
    (o.Event.demand_fetches > 0);
  Alcotest.(check int) "busy = channel occupancy + demand bursts"
    (Array.fold_left ( + ) 0 o.Event.channel_busy_cycles
    + (o.Event.demand_fetches * Event.transfer_latency cfg s))
    o.Event.dma_busy_cycles

(* --- TE gain and the cross-validation ---------------------------------- *)

(* The stall cycles a stream's time extension removes, as the event
   simulator measures them. *)
let te_gain cfg (s : Event.stream) =
  (Event.run cfg { s with Event.lookahead = 0 }).Event.stall_cycles
  - (Event.run cfg s).Event.stall_cycles

let test_te_gain_sign () =
  let s = stream ~issues:30 ~transfer:20 ~compute:30 ~lookahead:2 ~setup:1 () in
  let gain = te_gain (Event.neutral ~channels:2) s in
  Alcotest.(check bool) "prefetch ahead removes stalls" true (gain > 0);
  let no_room = { s with Event.lookahead = 0 } in
  Alcotest.(check int) "no lookahead, no gain" 0
    (te_gain (Event.neutral ~channels:2) no_room)

let test_check_event_all_apps () =
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.small in
      let hierarchy = Mhla_arch.Presets.two_level ~onchip_bytes:256 () in
      let r = Explore.run program hierarchy in
      let report =
        Crosscheck.check_event r.Explore.assign.Assign.mapping r.Explore.te
      in
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Fmt.str "%s %s: %a" app.Mhla_apps.Defs.name
               c.Crosscheck.event_check_id Crosscheck.pp_event_check c)
            true
            (Crosscheck.event_agrees c))
        report.Crosscheck.event_checks;
      Alcotest.(check (list string))
        (app.Mhla_apps.Defs.name ^ ": no divergences")
        []
        (List.map
           (fun d -> Fmt.str "%a" Crosscheck.pp_event_divergence d)
           report.Crosscheck.event_divergences))
    Mhla_apps.Registry.all

let test_check_event_reports_divergence_not_raise () =
  (* A hostile configuration (shared bus, thrashing invalidation, one
     slot) can push the event gain outside the documented tolerance.
     The contract is that check_event still returns — divergences are
     structured records, never asserts. *)
  let app = Mhla_apps.Registry.find_exn "motion_estimation" in
  let program = Lazy.force app.Mhla_apps.Defs.small in
  let hierarchy = Mhla_arch.Presets.two_level ~onchip_bytes:256 () in
  let r = Explore.run program hierarchy in
  let config =
    {
      (Event.of_hierarchy hierarchy) with
      Event.queue_depth = 1;
      shared_bus = true;
      invalidate_on_miss = true;
    }
  in
  let report =
    Crosscheck.check_event ~config r.Explore.assign.Assign.mapping
      r.Explore.te
  in
  (* Whatever the verdict, every divergence is well-formed. *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "divergence names its stream" true
        (d.Crosscheck.divergence_id <> "");
      Alcotest.(check bool) "divergence carries a detail line" true
        (d.Crosscheck.divergence_detail <> ""))
    report.Crosscheck.event_divergences;
  let json = Crosscheck.event_report_to_json report in
  Alcotest.(check bool) "report serialises" true
    (String.length (Mhla_util.Json.to_string json) > 0)

let test_check_event_json_shape () =
  let app = Mhla_apps.Registry.find_exn "wavelet_2d" in
  let program = Lazy.force app.Mhla_apps.Defs.small in
  let hierarchy = Mhla_arch.Presets.two_level ~onchip_bytes:256 () in
  let r = Explore.run program hierarchy in
  let report =
    Crosscheck.check_event r.Explore.assign.Assign.mapping r.Explore.te
  in
  match Crosscheck.event_report_to_json report with
  | Mhla_util.Json.Obj fields ->
    Alcotest.(check bool) "has checks" true (List.mem_assoc "checks" fields);
    Alcotest.(check bool) "has divergences" true
      (List.mem_assoc "divergences" fields);
    Alcotest.(check bool) "has agreement" true
      (List.mem_assoc "agreement" fields)
  | _ -> Alcotest.fail "event report must serialise to an object"

let () =
  Alcotest.run "esim"
    [
      ("neutral-equivalence",
       [
         Alcotest.test_case "hand-checked micro-program" `Quick
           test_neutral_hand_checked;
         Alcotest.test_case "parameter grid" `Quick
           test_neutral_equivalence_grid;
         QCheck_alcotest.to_alcotest prop_neutral_equivalence;
       ]);
      ("determinism",
       [
         Alcotest.test_case "same stream, same cycles" `Quick
           test_determinism_same_stream;
         Alcotest.test_case "Faults.none is inert" `Quick
           test_zero_faults_inert;
         Alcotest.test_case "jobs:1 == jobs:N over Domain_pool" `Quick
           test_domain_pool_determinism;
       ]);
      ("prefetch-queue",
       [
         Alcotest.test_case "depth bounds lookahead" `Quick
           test_queue_depth_bounds_lookahead;
         Alcotest.test_case "one slot stays between sync and one buffer"
           `Quick test_queue_depth_one_is_nearly_synchronous;
         Alcotest.test_case "demand miss invalidates" `Quick
           test_invalidation_on_demand_miss;
         Alcotest.test_case "hits never invalidate" `Quick
           test_no_invalidation_when_prefetch_keeps_up;
       ]);
      ("bus-and-waitstates",
       [
         Alcotest.test_case "shared bus serialises" `Quick
           test_shared_bus_serialises_channels;
         Alcotest.test_case "waitstate latency table" `Quick
           test_waitstate_latency;
         Alcotest.test_case "config from hierarchy" `Quick
           test_of_hierarchy_matches_cost_model;
         Alcotest.test_case "validation" `Quick test_validation;
         Alcotest.test_case "hostile stream accounts" `Quick
           test_hostile_stream_accounts;
       ]);
      ("cross-validation",
       [
         Alcotest.test_case "te_gain sign" `Quick test_te_gain_sign;
         Alcotest.test_case "all apps within tolerance" `Quick
           test_check_event_all_apps;
         Alcotest.test_case "divergence is data, not an assert" `Quick
           test_check_event_reports_divergence_not_raise;
         Alcotest.test_case "report JSON shape" `Quick
           test_check_event_json_shape;
       ]);
    ]
