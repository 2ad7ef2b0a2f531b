(* Regenerates every table and figure of the paper's evaluation plus the
   extension experiments of DESIGN.md, then times the tool's own
   algorithms (MICRO).

   Usage: dune exec bench/main.exe [-- [--check BASELINE] SECTION ...]
   Sections: FIG2 FIG3 TAB1 EXT-PARETO EXT-ORDER EXT-INPLACE EXT-GREEDY
   EXT-XVAL EXT-ESIM EXT-MODE EXT-3LEVEL EXT-MULTITASK EXT-SEARCH
   EXT-ENGINE EXT-WB EXT-FAULT EXT-TRACE EXT-CHECK EXT-GEN EXT-SERVE
   EXT-POLICY MICRO (default: all). --check compares the run's metrics
   against a committed baseline JSON (integer keys exactly, float keys
   within 15%) and exits non-zero on regression. *)

module Apps = Mhla_apps.Registry
module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Explore = Mhla_core.Explore
module Prefetch = Mhla_core.Prefetch
module Report = Mhla_core.Report
module Table = Mhla_util.Table

let section name description =
  Printf.printf "\n==================== %s ====================\n%s\n\n" name
    description

let median samples = Mhla_util.Stats.percentile samples ~p:50.

(* The one timing helper: median seconds per call of [f] on
   CLOCK_MONOTONIC. One warm-up call, then the batch size doubles until
   a batch takes at least 1 ms; that batch and four more of the same
   size are the samples. *)
let seconds_per_call f =
  let batch n =
    let t0 = Monotonic_clock.now () in
    for _ = 1 to n do
      ignore (f ())
    done;
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
  in
  ignore (f ());
  let rec size n =
    let t = batch n in
    if t >= 1e-3 then (n, t) else size (2 * n)
  in
  let n, first = size 1 in
  median
    (List.map
       (fun t -> t /. float_of_int n)
       (first :: List.init 4 (fun _ -> batch n)))

(* Machine-readable metrics: sections push stable-keyed values here
   and the driver writes them all to BENCH_dev.json after the run, so
   two checkouts' numbers can be diffed mechanically. *)
let bench_metrics : (string * Mhla_util.Json.t) list ref = ref []

let metric key value = bench_metrics := (key, value) :: !bench_metrics

let write_metrics () =
  match List.rev !bench_metrics with
  | [] -> ()
  | metrics ->
    let file = "BENCH_dev.json" in
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Mhla_util.Json.to_channel ~indent:2 oc (Mhla_util.Json.obj metrics);
        output_char oc '\n');
    Printf.printf "\nwrote %s (%d metrics)\n" file (List.length metrics)

(* Per-app results on the default platform, computed once and shared by
   FIG2 / FIG3 / TAB1. *)
let default_results =
  lazy
    (List.map
       (fun (app : Mhla_apps.Defs.t) ->
         let hierarchy =
           Mhla_arch.Presets.two_level
             ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
         in
         let program = Lazy.force app.Mhla_apps.Defs.program in
         (app.Mhla_apps.Defs.name, Explore.run program hierarchy))
       Apps.all)

let fig2 () =
  section "FIG2"
    "Paper Figure 2: normalised execution time per application\n\
     (out-of-the-box = 1.00). Expected shape: MHLA cuts 40-60%, TE cuts\n\
     up to a further 33% and approaches the ideal 0-wait bound.";
  Table.print (Report.figure2_table (Lazy.force default_results))

let fig3 () =
  section "FIG3"
    "Paper Figure 3: normalised energy per application. Expected shape:\n\
     MHLA cuts up to 70%; TE leaves energy unchanged (the model counts\n\
     only memory accesses).";
  Table.print (Report.figure3_table (Lazy.force default_results))

let tab1 () =
  section "TAB1"
    "Headline percentages quoted in section 3 of the paper.";
  Table.print (Report.headline_table (Lazy.force default_results))

let ext_pareto () =
  section "EXT-PARETO"
    "Trade-off exploration over per-layer budget vectors (abstract:\n\
     'thorough trade-off exploration for different memory layer\n\
     sizes'): the branch-and-bound frontier engine over a 5x5 L1/L2\n\
     grid spanning past SRAM energy saturation, where the lower-bound\n\
     test starts discarding provably dominated vectors. Pruning ratio\n\
     = grid points / points actually solved (> 1 means the bound\n\
     paid for itself).";
  let axes =
    [ [ 1024; 4096; 16384; 65536; 262144 ];
      [ 2048; 8192; 32768; 131072; 524288 ] ]
  in
  let grid = List.length (Mhla_arch.Presets.budget_grid ~axes) in
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("grid", Table.Right);
          ("evaluated", Table.Right);
          ("pruned", Table.Right);
          ("frontier", Table.Right);
          ("pruning ratio", Table.Right) ]
  in
  List.iter
    (fun name ->
      let app = Apps.find_exn name in
      let program = Lazy.force app.Mhla_apps.Defs.program in
      let outcome = Explore.pareto ~axes program in
      let s = outcome.Explore.stats in
      let frontier = Mhla_util.Pareto.Nd.size outcome.Explore.frontier in
      let pruning_ratio =
        float_of_int s.Explore.grid_points
        /. float_of_int (max 1 s.Explore.evaluated)
      in
      let key metric_name = Printf.sprintf "ext_pareto.%s.%s" name metric_name in
      metric (key "grid_points") (Mhla_util.Json.int s.Explore.grid_points);
      metric (key "evaluated") (Mhla_util.Json.int s.Explore.evaluated);
      metric (key "pruned") (Mhla_util.Json.int s.Explore.pruned);
      metric (key "frontier_size") (Mhla_util.Json.int frontier);
      metric (key "pruning_ratio") (Mhla_util.Json.float pruning_ratio);
      Table.add_row table
        [ name;
          Table.cell_int s.Explore.grid_points;
          Table.cell_int s.Explore.evaluated;
          Table.cell_int s.Explore.pruned;
          Table.cell_int frontier;
          Table.cell_float pruning_ratio ])
    [ "motion_estimation"; "cavity_detector"; "mp3_filterbank" ];
  Table.print table;
  Printf.printf "(grid: %d budget vectors per application)\n" grid

let ext_order () =
  section "EXT-ORDER"
    "Ablation of Figure 1's greedy order: residual transfer-stall cycles\n\
     after TE when the BT list is sorted by time/size (paper), FIFO,\n\
     size, or time. Transfers are Full-mode (whole-window refills, so\n\
     each extension needs a complete double buffer) and the size\n\
     constraint leaves room for roughly one such buffer: the greedy\n\
     order decides which transfers win the space.";
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("no TE", Table.Right);
          ("time/size", Table.Right);
          ("FIFO", Table.Right);
          ("size", Table.Right);
          ("time", Table.Right) ]
  in
  let full_config =
    { Assign.default_config with
      Assign.transfer_mode = Mhla_reuse.Candidate.Full }
  in
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.program in
      let hierarchy =
        Mhla_arch.Presets.two_level
          ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
      in
      let r = Explore.run ~config:full_config program hierarchy in
      let mapping = r.Explore.assign.Assign.mapping in
      (* Leave room for about one whole-window double buffer above what
         step 1 allocated. *)
      let peak =
        Mhla_lifetime.Occupancy.peak_bytes Mhla_lifetime.Occupancy.In_place
          (Mhla_core.Mapping.layer_blocks mapping ~level:0)
      in
      let largest_buffer =
        List.fold_left
          (fun acc (bt : Mhla_core.Mapping.block_transfer) ->
            max acc
              bt.Mhla_core.Mapping.bt_candidate
                .Mhla_reuse.Candidate.footprint_bytes)
          0
          (Mhla_core.Mapping.block_transfers mapping)
      in
      let tight =
        Mhla_arch.Presets.two_level
          ~onchip_bytes:(max 1 (peak + largest_buffer + 16)) ()
      in
      let mapping = Mhla_core.Mapping.with_hierarchy mapping tight in
      (* Each ablation sorts the same candidates its own way and hands
         them to the grant walk; FIFO keeps enumeration order. *)
      let candidates = Prefetch.candidates mapping in
      let stall schedule =
        (Prefetch.evaluate mapping schedule).Cost.transfer_stall_cycles
      in
      let largest_first key =
        stall
          (Prefetch.plan mapping
             (List.stable_sort
                (fun (a : Prefetch.candidate) b -> Int.compare (key b) (key a))
                candidates))
      in
      let cells =
        [ ("no_te", r.Explore.after_assign.Cost.transfer_stall_cycles);
          ("time_size", stall (Prefetch.run mapping));
          ("fifo", stall (Prefetch.plan mapping candidates));
          ( "size",
            largest_first (fun c ->
                c.Prefetch.bt.Mhla_core.Mapping.bytes_per_issue) );
          ("time", largest_first (fun c -> c.Prefetch.bt_time)) ]
      in
      List.iter
        (fun (column, cycles) ->
          metric
            (Printf.sprintf "ext_order.%s.%s" app.Mhla_apps.Defs.name column)
            (Mhla_util.Json.int cycles))
        cells;
      Table.add_row table
        (app.Mhla_apps.Defs.name
        :: List.map (fun (_, cycles) -> Table.cell_int cycles) cells))
    Apps.all;
  Table.print table

let ext_inplace () =
  section "EXT-INPLACE"
    "Ablation of the in-place optimisation: step-1 time gain when layer\n\
     occupancy is the lifetime-aware peak (paper) vs the conservative\n\
     sum of all buffers.";
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("gain in-place", Table.Right);
          ("gain sum", Table.Right);
          ("peak bytes in-place", Table.Right);
          ("bytes sum", Table.Right) ]
  in
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.program in
      let hierarchy =
        Mhla_arch.Presets.two_level
          ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
      in
      let run policy =
        Explore.run
          ~config:{ Assign.default_config with Assign.policy }
          program hierarchy
      in
      let in_place = run Mhla_lifetime.Occupancy.In_place in
      let summed = run Mhla_lifetime.Occupancy.Sum in
      (* Both byte columns size one layout, the in-place solve's layer
         0, under each policy: what in-place sizing saves on it. *)
      let blocks =
        Mhla_core.Mapping.layer_blocks in_place.Explore.assign.Assign.mapping
          ~level:0
      in
      let bytes policy = Mhla_lifetime.Occupancy.peak_bytes policy blocks in
      let key = Printf.sprintf "ext_inplace.%s.%s" app.Mhla_apps.Defs.name in
      let cycles (r : Explore.result) = r.Explore.after_assign.Cost.total_cycles in
      metric (key "cycles_in_place") (Mhla_util.Json.int (cycles in_place));
      metric (key "cycles_sum") (Mhla_util.Json.int (cycles summed));
      metric (key "peak_bytes_in_place")
        (Mhla_util.Json.int (bytes Mhla_lifetime.Occupancy.In_place));
      metric (key "bytes_sum")
        (Mhla_util.Json.int (bytes Mhla_lifetime.Occupancy.Sum));
      Table.add_row table
        [ app.Mhla_apps.Defs.name;
          Table.cell_percent (Explore.assign_time_gain_percent in_place);
          Table.cell_percent (Explore.assign_time_gain_percent summed);
          Table.cell_int (bytes Mhla_lifetime.Occupancy.In_place);
          Table.cell_int (bytes Mhla_lifetime.Occupancy.Sum) ])
    Apps.all;
  Table.print table

let ext_greedy () =
  section "EXT-GREEDY"
    "Greedy steepest descent vs exhaustive enumeration on the downsized\n\
     applications (cycles objective; arrays kept off-chip for both).";
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("greedy cycles", Table.Right);
          ("optimal cycles", Table.Right);
          ("gap", Table.Right);
          ("states", Table.Left) ]
  in
  let config =
    { Assign.default_config with
      Assign.objective = Cost.Cycles;
      allow_array_promotion = false }
  in
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let name = app.Mhla_apps.Defs.name in
      let program = Lazy.force app.Mhla_apps.Defs.small in
      let hierarchy = Mhla_arch.Presets.two_level ~onchip_bytes:256 () in
      let greedy = Assign.greedy ~config program hierarchy in
      let g = greedy.Assign.breakdown.Cost.total_cycles in
      let row =
        match
          Mhla_gen.Reference.exhaustive ~config ~max_states:2_000_000 program
            hierarchy
        with
        | Ok optimal ->
          let o = optimal.Assign.breakdown.Cost.total_cycles in
          let states = optimal.Assign.evaluations in
          let key = Printf.sprintf "ext_greedy.%s.%s" name in
          metric (key "greedy_cycles") (Mhla_util.Json.int g);
          metric (key "optimal_cycles") (Mhla_util.Json.int o);
          metric (key "states") (Mhla_util.Json.int states);
          [ name;
            Table.cell_int g;
            Table.cell_int o;
            Table.cell_percent
              (100. *. (float_of_int (g - o) /. float_of_int o));
            Table.cell_int states ]
        | Error msg -> [ name; Table.cell_int g; "-"; "-"; msg ]
      in
      Table.add_row table row)
    Apps.all;
  Table.print table

let ext_xval () =
  section "EXT-XVAL"
    "Pipeline replay of the analytic TE model: per block transfer,\n\
     Pipeline-replayed vs analytic stall cycles (agreement required\n\
     within the pipeline cold-start bound).";
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("checked BTs", Table.Right);
          ("within bound", Table.Right);
          ("max deviation", Table.Right) ]
  in
  List.iter
    (fun (name, (r : Explore.result)) ->
      let checks =
        Mhla_sim.Crosscheck.pipeline_checks r.Explore.assign.Assign.mapping
          r.Explore.te
      in
      let deviations =
        List.map
          (fun (c : Mhla_sim.Crosscheck.bt_check) ->
            abs
              (c.Mhla_sim.Crosscheck.simulated.Mhla_sim.Pipeline.stall_cycles
              - c.Mhla_sim.Crosscheck.analytic_stall_cycles))
          checks
      in
      Table.add_row table
        [ name;
          Table.cell_int (List.length checks);
          Table.cell_int
            (List.length (List.filter Mhla_sim.Crosscheck.agrees checks));
          Table.cell_int (List.fold_left max 0 deviations) ])
    (Lazy.force default_results);
  Table.print table

let ext_esim () =
  section "EXT-ESIM"
    "Discrete-event cycle-level DMA/bus simulation of every TE stream\n\
     vs the analytic model: per app, the gain divergence (must stay\n\
     within the documented tolerance) and the simulator's event\n\
     throughput.";
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("streams", Table.Right);
          ("agree", Table.Right);
          ("max gain dev", Table.Right);
          ("events", Table.Right);
          ("cycles", Table.Right);
          ("Mcycles/s", Table.Right) ]
  in
  List.iter
    (fun (name, (r : Explore.result)) ->
      let check () =
        Mhla_sim.Crosscheck.check_event r.Explore.assign.Assign.mapping
          r.Explore.te
      in
      let report = check () in
      let checks = report.Mhla_sim.Crosscheck.event_checks in
      let deviation (c : Mhla_sim.Crosscheck.event_check) =
        abs
          (c.Mhla_sim.Crosscheck.event_gain_cycles
          - c.Mhla_sim.Crosscheck.analytic_gain_cycles)
      in
      let max_dev = List.fold_left (fun m c -> max m (deviation c)) 0 checks in
      let events =
        List.fold_left
          (fun acc (c : Mhla_sim.Crosscheck.event_check) ->
            acc
            + c.Mhla_sim.Crosscheck.extended_outcome.Mhla_sim.Event
                .events_processed
            + c.Mhla_sim.Crosscheck.baseline_outcome.Mhla_sim.Event
                .events_processed)
          0 checks
      in
      let cycles =
        List.fold_left
          (fun acc (c : Mhla_sim.Crosscheck.event_check) ->
            acc
            + c.Mhla_sim.Crosscheck.extended_outcome.Mhla_sim.Event
                .total_cycles
            + c.Mhla_sim.Crosscheck.baseline_outcome.Mhla_sim.Event
                .total_cycles)
          0 checks
      in
      let agree =
        List.length checks
        - List.length report.Mhla_sim.Crosscheck.event_divergences
      in
      let key k = Printf.sprintf "esim.%s.%s" name k in
      metric (key "streams") (Mhla_util.Json.int (List.length checks));
      metric (key "agree") (Mhla_util.Json.int agree);
      metric (key "max_gain_dev") (Mhla_util.Json.int max_dev);
      metric (key "cycles") (Mhla_util.Json.int cycles);
      Table.add_row table
        [ name;
          Table.cell_int (List.length checks);
          Table.cell_int agree;
          Table.cell_int max_dev;
          Table.cell_int events;
          Table.cell_int cycles;
          Table.cell_float ~decimals:1
            (float_of_int cycles /. seconds_per_call check /. 1e6) ])
    (Lazy.force default_results);
  Table.print table

let ext_mode () =
  section "EXT-MODE"
    "Ablation of the transfer model: Full (every refill moves the whole\n\
     window) vs Delta (sliding windows only fetch the new part - the\n\
     inter-copy reuse refinement). Delta cuts off-chip traffic and\n\
     gives TE cheap extension buffers.";
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("traffic full (B)", Table.Right);
          ("traffic delta (B)", Table.Right);
          ("saved", Table.Right);
          ("TE extra full", Table.Right);
          ("TE extra delta", Table.Right) ]
  in
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.program in
      let hierarchy =
        Mhla_arch.Presets.two_level
          ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
      in
      let run mode =
        Explore.run
          ~config:{ Assign.default_config with Assign.transfer_mode = mode }
          program hierarchy
      in
      let traffic (r : Explore.result) =
        List.fold_left
          (fun acc (bt : Mhla_core.Mapping.block_transfer) ->
            acc + bt.Mhla_core.Mapping.total_bytes)
          0
          (Mhla_core.Mapping.block_transfers r.Explore.assign.Assign.mapping)
      in
      let full = run Mhla_reuse.Candidate.Full in
      let delta = run Mhla_reuse.Candidate.Delta in
      let tf = traffic full and td = traffic delta in
      let key = Printf.sprintf "ext_mode.%s.%s" app.Mhla_apps.Defs.name in
      let cycles (r : Explore.result) = r.Explore.after_te.Cost.total_cycles in
      metric (key "traffic_full") (Mhla_util.Json.int tf);
      metric (key "traffic_delta") (Mhla_util.Json.int td);
      metric (key "cycles_full") (Mhla_util.Json.int (cycles full));
      metric (key "cycles_delta") (Mhla_util.Json.int (cycles delta));
      Table.add_row table
        [ app.Mhla_apps.Defs.name;
          Table.cell_int tf;
          Table.cell_int td;
          Table.cell_percent
            (if tf = 0 then 0.
             else 100. *. float_of_int (tf - td) /. float_of_int tf);
          Table.cell_percent (Explore.te_extra_gain_percent full);
          Table.cell_percent (Explore.te_extra_gain_percent delta) ])
    Apps.all;
  Table.print table

let ext_three_level () =
  section "EXT-3LEVEL"
    "Two on-chip layers: a small L1 plus a larger L2 against the flat\n\
     two-level platform of the same total on-chip budget. Copy chains\n\
     (L1 buffer refilled from an L2 buffer) become available.";
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("2-level cycles", Table.Right);
          ("3-level cycles", Table.Right);
          ("2-level energy", Table.Right);
          ("3-level energy", Table.Right);
          ("chains used", Table.Right) ]
  in
  List.iter
    (fun name ->
      let app = Apps.find_exn name in
      let program = Lazy.force app.Mhla_apps.Defs.program in
      let budget = 4096 in
      let two = Explore.run program (Mhla_arch.Presets.two_level ~onchip_bytes:budget ()) in
      let three =
        Explore.run program
          (Mhla_arch.Presets.three_level ~l1_bytes:(budget / 8)
             ~l2_bytes:(budget * 7 / 8) ())
      in
      let chains =
        List.length
          (List.filter
             (fun (_, p) ->
               match p with
               | Mhla_core.Mapping.Chain (_ :: _ :: _) -> true
               | Mhla_core.Mapping.Chain _ | Mhla_core.Mapping.Direct -> false)
             three.Explore.assign.Assign.mapping.Mhla_core.Mapping.placements)
      in
      let key = Printf.sprintf "ext_3level.%s.%s" name in
      metric (key "cycles_2level")
        (Mhla_util.Json.int two.Explore.after_te.Cost.total_cycles);
      metric (key "cycles_3level")
        (Mhla_util.Json.int three.Explore.after_te.Cost.total_cycles);
      metric (key "chains") (Mhla_util.Json.int chains);
      Table.add_row table
        [ name;
          Table.cell_int two.Explore.after_te.Cost.total_cycles;
          Table.cell_int three.Explore.after_te.Cost.total_cycles;
          Table.cell_float ~decimals:0 two.Explore.after_assign.Cost.total_energy_pj;
          Table.cell_float ~decimals:0
            three.Explore.after_assign.Cost.total_energy_pj;
          Table.cell_int chains ])
    [ "motion_estimation"; "cavity_detector"; "jpeg_encoder";
      "mp3_filterbank" ];
  Table.print table

let ext_multitask () =
  section "EXT-MULTITASK"
    "Sequential multi-task composition (the paper's stated future\n\
     work): three tasks share one scratchpad. The jointly allocated\n\
     composed program matches the sum of per-task allocations - the\n\
     tasks' buffers overlay in-place across task boundaries.";
  let tasks =
    List.map
      (fun n -> Lazy.force (Apps.find_exn n).Mhla_apps.Defs.small)
      [ "wavelet_2d"; "edge_detection"; "adpcm_coder" ]
  in
  let composed = Mhla_ir.Compose.sequence ~name:"task_set" tasks in
  let budget = 512 in
  let hierarchy = Mhla_arch.Presets.two_level ~onchip_bytes:budget () in
  let joint = Explore.run composed hierarchy in
  let separate_cycles, separate_energy =
    List.fold_left
      (fun (c, e) task ->
        let r = Explore.run task hierarchy in
        ( c + r.Explore.after_te.Cost.total_cycles,
          e +. r.Explore.after_assign.Cost.total_energy_pj ))
      (0, 0.) tasks
  in
  metric "ext_multitask.separate_cycles" (Mhla_util.Json.int separate_cycles);
  metric "ext_multitask.joint_cycles"
    (Mhla_util.Json.int joint.Explore.after_te.Cost.total_cycles);
  let table =
    Table.create
      ~columns:
        [ ("allocation", Table.Left);
          ("cycles (after TE)", Table.Right);
          ("energy (pJ)", Table.Right) ]
  in
  Table.add_row table
    [ "per-task (sum of 3 runs)";
      Table.cell_int separate_cycles;
      Table.cell_float ~decimals:0 separate_energy ];
  Table.add_row table
    [ "joint (composed program)";
      Table.cell_int joint.Explore.after_te.Cost.total_cycles;
      Table.cell_float ~decimals:0
        joint.Explore.after_assign.Cost.total_energy_pj ];
  Table.print table

let ext_search () =
  section "EXT-SEARCH"
    "Steepest-descent greedy vs simulated annealing (4000 random moves,\n\
     geometric cooling). The greedy is near-optimal at the calibrated\n\
     budgets but falls into a local optimum on voice_compression with a\n\
     3 KiB scratchpad; annealing escapes it at ~30x the evaluations.";
  let table =
    Table.create
      ~columns:
        [ ("case", Table.Left);
          ("greedy cycles", Table.Right);
          ("anneal cycles", Table.Right);
          ("anneal vs greedy", Table.Right);
          ("greedy evals", Table.Right);
          ("anneal evals", Table.Right) ]
  in
  let run name budget =
    let app = Apps.find_exn name in
    let program = Lazy.force app.Mhla_apps.Defs.program in
    let h = Mhla_arch.Presets.two_level ~onchip_bytes:budget () in
    let greedy = Assign.greedy program h in
    let sa = Assign.simulated_annealing program h in
    let g = greedy.Assign.breakdown.Cost.total_cycles in
    let a = sa.Assign.breakdown.Cost.total_cycles in
    let key = Printf.sprintf "ext_search.%s_%d.%s" name budget in
    metric (key "greedy_cycles") (Mhla_util.Json.int g);
    metric (key "anneal_cycles") (Mhla_util.Json.int a);
    metric (key "greedy_evals") (Mhla_util.Json.int greedy.Assign.evaluations);
    metric (key "anneal_evals") (Mhla_util.Json.int sa.Assign.evaluations);
    Table.add_row table
      [ Printf.sprintf "%s @ %dB" name budget;
        Table.cell_int g;
        Table.cell_int a;
        Table.cell_percent (100. *. (float_of_int (g - a) /. float_of_int g));
        Table.cell_int greedy.Assign.evaluations;
        Table.cell_int sa.Assign.evaluations ]
  in
  run "voice_compression" 3072;
  run "voice_compression" 1536;
  run "cavity_detector" 640;
  run "adpcm_coder" 640;
  Table.print table

let ext_wb () =
  section "EXT-WB"
    "Deferred write-backs (the symmetric TE extension the paper leaves\n\
     open): buffer drains to the off-chip store are also scheduled\n\
     asynchronously and hidden behind the following iterations'\n\
     compute, unless another access to the region blocks them.";
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("cycles, fetch-only TE", Table.Right);
          ("cycles, + deferred drains", Table.Right);
          ("extra gain", Table.Right);
          ("drains hidden", Table.Right) ]
  in
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let program = Lazy.force app.Mhla_apps.Defs.program in
      let hierarchy =
        Mhla_arch.Presets.two_level
          ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
      in
      (* One solve: step 1 does not depend on TE, so the deferred-drain
         schedule is planned on the fetch-only run's own mapping. *)
      let fetch_only = Explore.run program hierarchy in
      let mapping = fetch_only.Explore.assign.Assign.mapping in
      let with_wb = Prefetch.run ~defer_writebacks:true mapping in
      let drains_hidden =
        List.length
          (List.filter
             (fun (p : Prefetch.plan) ->
               p.Prefetch.bt.Mhla_core.Mapping.is_writeback
               && p.Prefetch.hidden_cycles > 0)
             with_wb.Prefetch.plans)
      in
      let f = fetch_only.Explore.after_te.Cost.total_cycles in
      let w = (Prefetch.evaluate mapping with_wb).Cost.total_cycles in
      let key = Printf.sprintf "ext_wb.%s.%s" app.Mhla_apps.Defs.name in
      metric (key "fetch_only") (Mhla_util.Json.int f);
      metric (key "deferred") (Mhla_util.Json.int w);
      metric (key "drains_hidden") (Mhla_util.Json.int drains_hidden);
      Table.add_row table
        [ app.Mhla_apps.Defs.name;
          Table.cell_int f;
          Table.cell_int w;
          Table.cell_percent (100. *. (float_of_int (f - w) /. float_of_int f));
          Table.cell_int drains_hidden ])
    Apps.all;
  Table.print table

let ext_engine () =
  section "EXT-ENGINE"
    "Incremental cost engine vs from-scratch evaluation: objective\n\
     probes per second over each application's full move set,\n\
     feasibility checks per second over the same moves, each resolved\n\
     once to its handle as the searches do, and the minor words one\n\
     probe and one check allocate; then the Domain-parallel size sweep\n\
     time. The engine re-folds cached per-unit\n\
     contributions, so its probes are bit-identical to Cost.evaluate\n\
     while recomputing only what the move touched.";
  let module Engine = Mhla_core.Engine in
  let module Mapping = Mhla_core.Mapping in
  let config = Assign.default_config in
  (* Minor words per call over a fixed number of rounds, after one
     warm-up round: deterministic, unlike the timings. [f] loops with
     [for], so the words are the engine's alone. *)
  let words_per_call per_round f =
    let rounds = 20 in
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int (rounds * per_round)
  in
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("moves", Table.Right);
          ("oracle evals/s", Table.Right);
          ("engine probes/s", Table.Right);
          ("speedup", Table.Right);
          ("cache hit rate", Table.Right);
          ("checks/s", Table.Right);
          ("words/probe", Table.Right);
          ("words/check", Table.Right) ]
  in
  let calls = ref 0 and probe_words = ref 0. and check_words = ref 0. in
  List.iter
    (fun name ->
      let app = Apps.find_exn name in
      let program = Lazy.force app.Mhla_apps.Defs.program in
      let hierarchy =
        Mhla_arch.Presets.two_level
          ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
      in
      let m =
        Mapping.direct ~transfer_mode:config.Assign.transfer_mode program
          hierarchy
      in
      let mvs = Assign.moves config m in
      let n_moves = List.length mvs in
      let per_second f = float_of_int n_moves /. seconds_per_call f in
      let oracle_rate =
        per_second (fun () ->
            List.iter
              (fun mv ->
                ignore
                  (Cost.scalar config.Assign.objective
                     (Cost.evaluate (Assign.apply_move m mv))
                    : float))
              mvs)
      in
      let engine = Engine.create ~objective:config.Assign.objective m in
      let handles = Array.of_list (List.map (Engine.resolve engine) mvs) in
      let probe_all () =
        for k = 0 to n_moves - 1 do
          ignore (Engine.probe engine handles.(k) : float)
        done
      in
      let check_all () =
        for k = 0 to n_moves - 1 do
          ignore (Engine.feasible engine handles.(k) : bool)
        done
      in
      let engine_rate = per_second probe_all in
      let s = Engine.stats engine in
      let check_rate = per_second check_all in
      let wp = words_per_call n_moves probe_all in
      let wc = words_per_call n_moves check_all in
      calls := !calls + n_moves;
      probe_words := !probe_words +. (wp *. float_of_int n_moves);
      check_words := !check_words +. (wc *. float_of_int n_moves);
      let contribs = s.Engine.contribs_reused + s.Engine.contribs_recomputed in
      Table.add_row table
        [ name;
          Table.cell_int n_moves;
          Table.cell_float ~decimals:0 oracle_rate;
          Table.cell_float ~decimals:0 engine_rate;
          Table.cell_float (engine_rate /. oracle_rate);
          Table.cell_percent
            (if contribs = 0 then 0.
             else
               100.
               *. float_of_int s.Engine.contribs_reused
               /. float_of_int contribs);
          Table.cell_float ~decimals:0 check_rate;
          Table.cell_float ~decimals:1 wp;
          Table.cell_float ~decimals:1 wc ])
    [ "motion_estimation"; "cavity_detector"; "mp3_filterbank";
      "voice_compression" ];
  Table.print table;
  metric "ext_engine.words_per_probe"
    (Mhla_util.Json.float (!probe_words /. float_of_int !calls));
  metric "ext_engine.words_per_feasible"
    (Mhla_util.Json.float (!check_words /. float_of_int !calls));
  print_newline ();
  (* The lazy greedy and the lazy annealing (Policy.anneal's settings)
     at each application's calibrated budget: every feasible candidate
     still counts as an evaluation, but the greedy probes a move only
     when its cached delta is stale or cannot rule it out of the round,
     and the annealing only when its cached delta cannot certify a
     rejection. The greedy's staged checks are those the engine's peak
     bound left undecided. Deterministic, so pinned exactly. *)
  let seed, iterations =
    match Mhla_policy.Policy.anneal.Mhla_policy.Policy.search with
    | Explore.Annealing { seed; iterations } -> (seed, iterations)
    | Explore.Greedy | Explore.First_improvement ->
      invalid_arg "EXT-ENGINE: Policy.anneal does not anneal"
  in
  let probes =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("evaluations", Table.Right);
          ("greedy probes", Table.Right);
          ("probed", Table.Right);
          ("greedy staged", Table.Right);
          ("anneal evaluations", Table.Right);
          ("anneal probes", Table.Right);
          ("probed", Table.Right) ]
  in
  let share (r : Assign.result) =
    Table.cell_percent
      (100. *. float_of_int r.Assign.probes
      /. float_of_int r.Assign.evaluations)
  in
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let name = app.Mhla_apps.Defs.name in
      let program = Lazy.force app.Mhla_apps.Defs.program in
      let hierarchy =
        Mhla_arch.Presets.two_level
          ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
      in
      let r = Assign.greedy program hierarchy in
      let a = Assign.simulated_annealing ~seed ~iterations program hierarchy in
      Table.add_row probes
        [ name;
          Table.cell_int r.Assign.evaluations;
          Table.cell_int r.Assign.probes;
          share r;
          Table.cell_int r.Assign.feasible_staged;
          Table.cell_int a.Assign.evaluations;
          Table.cell_int a.Assign.probes;
          share a ];
      metric
        (Printf.sprintf "ext_engine.%s.greedy_probes" name)
        (Mhla_util.Json.int r.Assign.probes);
      metric
        (Printf.sprintf "ext_engine.%s.greedy_staged" name)
        (Mhla_util.Json.int r.Assign.feasible_staged);
      metric
        (Printf.sprintf "ext_engine.%s.anneal_probes" name)
        (Mhla_util.Json.int a.Assign.probes))
    Apps.all;
  Table.print probes;
  print_newline ();
  let sizes = Mhla_arch.Presets.sweep_sizes ~min_bytes:128 ~max_bytes:8192 in
  let me = Apps.find_exn "motion_estimation" in
  let program = Lazy.force me.Mhla_apps.Defs.program in
  let ms jobs =
    1e3 *. seconds_per_call (fun () -> Explore.sweep ~jobs ~sizes program)
  in
  let jobs = Mhla_util.Domain_pool.recommended_jobs () in
  let serial = ms 1 in
  let parallel = ms jobs in
  Printf.printf
    "sweep motion_estimation over %d sizes (128B..8KiB):\n\
    \  jobs=1  %.3f ms\n\
    \  jobs=%d  %.3f ms  (speedup %.2fx on %d recommended domains)\n"
    (List.length sizes) serial jobs parallel (serial /. parallel) jobs

let ext_fault () =
  section "EXT-FAULT"
    "Robustness of the TE schedules under injected DMA faults: uniform\n\
     latency jitter plus sporadic corrupt transfers with retry/backoff,\n\
     16 seeded trials per prefetch stream. Worst-case stall inflation\n\
     stays bounded and every zero-fault replay matches Pipeline.run\n\
     exactly (graceful degradation, not divergence).";
  let faults =
    Mhla_sim.Faults.make
      ~jitter:(Mhla_sim.Faults.Uniform { max_extra_cycles = 8 })
      ~failure_permille:20 ~seed:42L ()
  in
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("streams", Table.Right);
          ("worst inflation", Table.Right);
          ("mean inflation", Table.Right);
          ("retries", Table.Right);
          ("fallbacks", Table.Right);
          ("zero-fault ok", Table.Right) ]
  in
  List.iter
    (fun (name, (r : Explore.result)) ->
      let report =
        Mhla_sim.Robustness.analyze ~faults r.Explore.assign.Assign.mapping
          r.Explore.te
      in
      let plans = report.Mhla_sim.Robustness.plans in
      let fold f = List.fold_left f 0. plans in
      let sum f =
        List.fold_left (fun a p -> a + f p) 0 plans
      in
      Table.add_row table
        [ name;
          Table.cell_int (List.length plans);
          Table.cell_float
            (fold (fun a p -> max a p.Mhla_sim.Robustness.worst_inflation));
          Table.cell_float
            (if plans = [] then 0.
             else
               Mhla_util.Stats.mean
                 (List.map
                    (fun p -> p.Mhla_sim.Robustness.mean_inflation)
                    plans));
          Table.cell_int (sum (fun p -> p.Mhla_sim.Robustness.total_retries));
          Table.cell_int
            (sum (fun p -> p.Mhla_sim.Robustness.total_fallbacks));
          (if report.Mhla_sim.Robustness.all_zero_fault_consistent then "yes"
           else "NO") ])
    (Lazy.force default_results);
  Table.print table

let micro () =
  section "MICRO"
    "Median time per call of the tool's own algorithms (ns/run).";
  let me = Apps.find_exn "motion_estimation" in
  let me_program = Lazy.force me.Mhla_apps.Defs.program in
  let hierarchy = Mhla_arch.Presets.two_level ~onchip_bytes:2048 () in
  let mapping = (Assign.greedy me_program hierarchy).Assign.mapping in
  let table =
    Table.create ~columns:[ ("benchmark", Table.Left); ("ns/run", Table.Right) ]
  in
  let bench name f =
    Table.add_row table [ name; Table.cell_float (1e9 *. seconds_per_call f) ]
  in
  bench "reuse-analysis(me)" (fun () -> Mhla_reuse.Analysis.analyze me_program);
  bench "greedy-assign(me)" (fun () -> Assign.greedy me_program hierarchy);
  bench "te-schedule(me)" (fun () -> Prefetch.run mapping);
  bench "cost-evaluate(me)" (fun () -> Cost.evaluate mapping);
  bench "pipeline-sim(1k)" (fun () ->
      Mhla_sim.Pipeline.run ~channels:2
        {
          Mhla_sim.Pipeline.issues = 1000;
          bytes_per_issue = 0;
          transfer_cycles = 120;
          compute_cycles = 150;
          lookahead = 1;
          setup_cycles = 24;
        });
  Table.print table

let ext_trace () =
  section "EXT-TRACE"
    "Telemetry overhead. The solver stack is instrumented end to end\n\
     against Mhla_obs.Telemetry; with the default noop sink every site\n\
     is a single tag test and the args thunks are never forced, so the\n\
     instrumented flow must stay within noise (<2%) of free. The\n\
     collector column shows the full recording cost for scale.";
  let module Telemetry = Mhla_obs.Telemetry in
  Printf.printf "noop instant dispatch: %.2f ns/call\n\n"
    (1e9
    *. seconds_per_call (fun () ->
           Telemetry.instant Telemetry.noop ~cat:"bench" "x"
             ~args:(fun () -> [ ("i", Telemetry.Int 0) ])));
  let rate f = 1. /. seconds_per_call f in
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("noop runs/s", Table.Right);
          ("collector runs/s", Table.Right);
          ("recording overhead", Table.Right);
          ("events/run", Table.Right) ]
  in
  List.iter
    (fun name ->
      let app = Apps.find_exn name in
      let program = Lazy.force app.Mhla_apps.Defs.program in
      let hierarchy =
        Mhla_arch.Presets.two_level
          ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
      in
      let noop_rate = rate (fun () -> Explore.run program hierarchy) in
      let coll_rate =
        rate (fun () ->
            Explore.run ~telemetry:(Telemetry.collector ()) program hierarchy)
      in
      let events =
        let t = Telemetry.collector () in
        ignore (Explore.run ~telemetry:t program hierarchy : Explore.result);
        List.length (Telemetry.events t)
      in
      Table.add_row table
        [ name;
          Table.cell_float ~decimals:1 noop_rate;
          Table.cell_float ~decimals:1 coll_rate;
          Table.cell_percent (100. *. ((noop_rate /. coll_rate) -. 1.));
          Table.cell_int events ])
    [ "motion_estimation"; "mp3_filterbank"; "voice_compression" ];
  Table.print table

let ext_check () =
  let module Pass = Mhla_analysis.Pass in
  let module Verify = Mhla_analysis.Verify in
  section "EXT-CHECK"
    (Printf.sprintf
       "Static verifier cost: one full pass-suite run over each\n\
        application's solved mapping and TE schedule, per pass and\n\
        whole (passes: %s).\n\
        The verifier re-derives subscript ranges, freedom loops and layer\n\
        peaks from the IR, so its cost scales with program size, not\n\
        solver effort."
       (String.concat ", " Verify.pass_names));
  let us f = 1e6 *. seconds_per_call f in
  let table =
    Table.create
      ~columns:
        (("application", Table.Left)
         :: List.map (fun n -> (n ^ " us", Table.Right)) Verify.pass_names
        @ [ ("suite us", Table.Right);
            ("errors", Table.Right);
            ("warnings", Table.Right) ])
  in
  List.iter
    (fun (name, (r : Explore.result)) ->
      (* A fresh subject per call: its timeline is built lazily by the
         first pass that needs it, and a service request pays for it
         every time, so the timings must too. *)
      let subject () =
        Pass.of_mapping ~schedule:r.Explore.te r.Explore.assign.Assign.mapping
      in
      let per_pass =
        List.map
          (fun pass ->
            Table.cell_float ~decimals:1
              (us (fun () -> Verify.run ~only:[ pass ] (subject ()))))
          Verify.pass_names
      in
      let suite = us (fun () -> Verify.run (subject ())) in
      let report = Verify.run (subject ()) in
      Table.add_row table
        (name :: per_pass
        @ [ Table.cell_float ~decimals:1 suite;
            Table.cell_int (List.length (Verify.errors report));
            Table.cell_int (List.length (Verify.warnings report)) ]))
    (Lazy.force default_results);
  Table.print table

let ext_gen () =
  section "EXT-GEN"
    "Seeded workload generator + differential fuzz battery (mhla fuzz):\n\
     per difficulty profile, programs generated per second and full\n\
     differential cases per second (solve, engine churn, pipeline\n\
     cross-validation, verifier on greedy and annealing outputs, trace\n\
     interpreter). Case throughput bounds how many programs the CI\n\
     fuzz gate can afford.";
  let module Gen = Mhla_gen.Generate in
  let module Oracle = Mhla_gen.Oracle in
  (* Each call draws the next seed, so the rate covers many programs. *)
  let rate f =
    let k = ref 0 in
    1.
    /. seconds_per_call (fun () ->
           incr k;
           f !k)
  in
  let table =
    Table.create
      ~columns:
        [ ("profile", Table.Left);
          ("gen programs/s", Table.Right);
          ("fuzz cases/s", Table.Right);
          ("mean accesses", Table.Right);
          ("mean arrays", Table.Right) ]
  in
  List.iter
    (fun (name, profile) ->
      let seed_of k = Int64.of_int (1 + k) in
      let gen_rate = rate (fun k -> Gen.case ~profile ~seed:(seed_of k) ()) in
      let case_rate =
        rate (fun k -> Oracle.run_case ~profile ~seed:(seed_of k) ())
      in
      let sample = List.init 50 (fun k -> Gen.case ~profile ~seed:(seed_of k) ()) in
      let mean f =
        Mhla_util.Stats.mean
          (List.map (fun (c : Gen.case) -> float_of_int (f c.Gen.program)) sample)
      in
      Table.add_row table
        [ name;
          Table.cell_float ~decimals:0 gen_rate;
          Table.cell_float ~decimals:0 case_rate;
          Table.cell_float
            (mean Mhla_ir.Program.total_access_count);
          Table.cell_float
            (mean (fun p -> List.length p.Mhla_ir.Program.arrays)) ])
    (List.filter (fun (_, p) -> p <> Gen.Mixed) Gen.all_profiles);
  Table.print table

let ext_serve () =
  section "EXT-SERVE"
    "Solver-service throughput (mhla batch/serve): generator-seeded\n\
     requests through the worker pool. Worker scaling at a comfortable\n\
     queue depth, then the queue-depth sweep at 2 workers (a depth-1\n\
     queue serialises submission against the solve), then the shed rate\n\
     when a daemon-postured service (Shed admission) is fed faster than\n\
     one worker drains an undersized queue.";
  let module Service = Mhla_service.Service in
  let module Request = Mhla_service.Request in
  let module Gen = Mhla_gen.Generate in
  let lines =
    List.init 48 (fun i ->
        let case =
          Gen.case ~profile:Gen.Mixed ~seed:(Int64.of_int (9000 + i)) ()
        in
        (* Annealing keeps each request at solver scale (a greedy solve
           on these programs is sub-millisecond, so pool overhead would
           dominate and hide the worker scaling). *)
        let req =
          Request.make
            ~search:
              (Mhla_core.Explore.Annealing
                 { seed = Int64.of_int (100 + i); iterations = 2000 })
            ~id:(Printf.sprintf "bench-%d" i)
            ~arch:
              (Request.Two_level
                 { onchip_bytes = case.Gen.onchip_bytes; dma = true })
            case.Gen.program
        in
        Mhla_util.Json.to_string (Request.to_json req))
  in
  let run_batch ~jobs ~queue_depth ~admission =
    let service =
      Service.create
        ~config:
          { Service.default_config with
            Service.jobs; queue_depth; admission }
        ()
    in
    List.iter
      (fun line -> ignore (Service.submit service line : [ `Queued | `Shed ]))
      lines;
    ignore (Service.drain service : Mhla_service.Response.t list);
    let s = Service.summary service in
    Service.shutdown service;
    s
  in
  (* Wall seconds per batch under Block admission, and one batch's
     latency summary. *)
  let blocking ~jobs ~queue_depth =
    let run () = run_batch ~jobs ~queue_depth ~admission:Service.Block in
    (seconds_per_call run, run ())
  in
  let n = List.length lines in
  let jobs_table =
    Table.create
      ~columns:
        [ ("jobs", Table.Right);
          ("wall (s)", Table.Right);
          ("solves/s", Table.Right);
          ("speedup", Table.Right);
          ("p99 (ms)", Table.Right) ]
  in
  let base = ref 0. in
  List.iter
    (fun jobs ->
      let elapsed, s = blocking ~jobs ~queue_depth:32 in
      if jobs = 1 then base := elapsed;
      Table.add_row jobs_table
        [ Table.cell_int jobs;
          Table.cell_float ~decimals:3 elapsed;
          Table.cell_float ~decimals:1 (float_of_int n /. elapsed);
          Table.cell_float (!base /. elapsed);
          Table.cell_float s.Service.p99_ms ])
    [ 1; 2; 4 ];
  Table.print jobs_table;
  Printf.printf
    "(recommended domains on this machine: %d; jobs beyond it buy\n\
    \ contention, not throughput)\n"
    (Mhla_util.Domain_pool.recommended_jobs ());
  print_newline ();
  let depth_table =
    Table.create
      ~columns:
        [ ("queue depth", Table.Right);
          ("wall (s)", Table.Right);
          ("solves/s", Table.Right);
          ("p50 (ms)", Table.Right);
          ("p99 (ms)", Table.Right) ]
  in
  List.iter
    (fun queue_depth ->
      let elapsed, s = blocking ~jobs:2 ~queue_depth in
      Table.add_row depth_table
        [ Table.cell_int queue_depth;
          Table.cell_float ~decimals:3 elapsed;
          Table.cell_float ~decimals:1 (float_of_int n /. elapsed);
          Table.cell_float s.Service.p50_ms;
          Table.cell_float s.Service.p99_ms ])
    [ 1; 2; 8; 32 ];
  Table.print depth_table;
  print_newline ();
  let shed_table =
    Table.create
      ~columns:
        [ ("queue depth", Table.Right);
          ("submitted", Table.Right);
          ("solved ok", Table.Right);
          ("shed", Table.Right);
          ("shed rate", Table.Right) ]
  in
  List.iter
    (fun queue_depth ->
      let s = run_batch ~jobs:1 ~queue_depth ~admission:Service.Shed in
      Table.add_row shed_table
        [ Table.cell_int queue_depth;
          Table.cell_int s.Service.submitted;
          Table.cell_int s.Service.ok;
          Table.cell_int s.Service.shed;
          Table.cell_percent
            (100. *. float_of_int s.Service.shed /. float_of_int n) ])
    [ 1; 4; 16 ];
  Table.print shed_table

let ext_policy () =
  section "EXT-POLICY"
    "Pluggable policy layer: racing the default portfolio\n\
     (greedy / greedy-first / anneal) per application — winner, wall\n\
     clock serial vs parallel, win rate.";
  let module Policy = Mhla_policy.Policy in
  let module Portfolio = Mhla_policy.Portfolio in
  let policies = Mhla_policy.Registry.default_portfolio in
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("winner", Table.Left);
          ("objective", Table.Right);
          ("wall -j1 (s)", Table.Right);
          ("wall -j3 (s)", Table.Right);
          ("speedup", Table.Right) ]
  in
  let wins = Hashtbl.create 8 and disagreements = ref [] in
  List.iter
    (fun (app : Mhla_apps.Defs.t) ->
      let name = app.Mhla_apps.Defs.name in
      let program = Lazy.force app.Mhla_apps.Defs.program in
      let hierarchy =
        Mhla_arch.Presets.two_level
          ~onchip_bytes:app.Mhla_apps.Defs.onchip_bytes ()
      in
      let race jobs () = Portfolio.race ~jobs ~policies program hierarchy in
      let serial = race 1 () and parallel = race 3 () in
      let wall_j1 = seconds_per_call (race 1)
      and wall_j3 = seconds_per_call (race 3) in
      let winner = serial.Portfolio.winner in
      let wname = winner.Portfolio.policy.Policy.name in
      if
        parallel.Portfolio.winner.Portfolio.policy.Policy.name <> wname
        || parallel.Portfolio.winner.Portfolio.objective
           <> winner.Portfolio.objective
      then disagreements := name :: !disagreements;
      Hashtbl.replace wins wname
        (1 + Option.value ~default:0 (Hashtbl.find_opt wins wname));
      let key m = Printf.sprintf "ext_policy.%s.%s" name m in
      metric (key "winner") (Mhla_util.Json.str wname);
      Table.add_row table
        [ name;
          wname;
          Table.cell_float winner.Portfolio.objective;
          Table.cell_float ~decimals:3 wall_j1;
          Table.cell_float ~decimals:3 wall_j3;
          Table.cell_float (wall_j1 /. Float.max wall_j3 1e-9) ])
    Apps.all;
  Table.print table;
  if !disagreements <> [] then begin
    Printf.eprintf "EXT-POLICY: -j1 and -j3 races disagree on the winner: %s\n"
      (String.concat ", " (List.rev !disagreements));
    exit 1
  end;
  List.iter
    (fun (p : Policy.t) ->
      let n =
        Option.value ~default:0 (Hashtbl.find_opt wins p.Policy.name)
      in
      metric
        (Printf.sprintf "ext_policy.portfolio.wins.%s" p.Policy.name)
        (Mhla_util.Json.int n);
      Printf.printf "  %-18s wins %d/%d\n" p.Policy.name n
        (List.length Apps.all))
    policies

let sections =
  [ ("FIG2", fig2);
    ("FIG3", fig3);
    ("TAB1", tab1);
    ("EXT-PARETO", ext_pareto);
    ("EXT-ORDER", ext_order);
    ("EXT-INPLACE", ext_inplace);
    ("EXT-GREEDY", ext_greedy);
    ("EXT-XVAL", ext_xval);
    ("EXT-ESIM", ext_esim);
    ("EXT-MODE", ext_mode);
    ("EXT-3LEVEL", ext_three_level);
    ("EXT-MULTITASK", ext_multitask);
    ("EXT-SEARCH", ext_search);
    ("EXT-ENGINE", ext_engine);
    ("EXT-WB", ext_wb);
    ("EXT-FAULT", ext_fault);
    ("EXT-TRACE", ext_trace);
    ("EXT-CHECK", ext_check);
    ("EXT-GEN", ext_gen);
    ("EXT-SERVE", ext_serve);
    ("EXT-POLICY", ext_policy);
    ("MICRO", micro) ]

(* Regression gate: compare this run's metrics against a committed
   baseline. Only keys present in the baseline are checked (so the
   baseline can be pruned to deterministic keys — wall clocks and
   scheduling-dependent counters stay out of it); a missing key, an
   integer that differs at all, or a float that drifts beyond 15% of
   the baseline magnitude fails the run. *)
let check_baseline file =
  let contents =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "--check: %s\n" msg;
      exit 2
  in
  let baseline =
    match Mhla_util.Json.parse contents with
    | Ok (Mhla_util.Json.Obj fields) -> fields
    | Ok _ ->
      Printf.eprintf "--check %s: baseline is not a JSON object\n" file;
      exit 2
    | Error e ->
      Printf.eprintf "--check %s: %s\n" file
        (Mhla_util.Json.parse_error_to_string e);
      exit 2
  in
  let current = List.rev !bench_metrics in
  (* Integer keys are deterministic counts (cycles, probes, grid
     points) and must match exactly; only float keys, which carry
     allocation ratios, get a band. *)
  let tolerance = 0.15 in
  let offenders =
    List.filter_map
      (fun (key, want) ->
        match (want, List.assoc_opt key current) with
        | _, None -> Some (Printf.sprintf "%s: missing from this run" key)
        | Mhla_util.Json.Float w, Some (Mhla_util.Json.Float g) ->
          if Float.abs (g -. w) > tolerance *. Float.max (Float.abs w) 1e-9
          then
            Some
              (Printf.sprintf "%s: %.6g drifted >%.0f%% from baseline %.6g"
                 key g (100. *. tolerance) w)
          else None
        | _, Some got ->
          if Mhla_util.Json.equal want got then None
          else
            Some
              (Printf.sprintf "%s: %s <> baseline %s" key
                 (Mhla_util.Json.to_string got)
                 (Mhla_util.Json.to_string want)))
      baseline
  in
  match offenders with
  | [] ->
    Printf.printf
      "baseline check OK (%d key(s): integers exact, floats within %.0f%%)\n"
      (List.length baseline) (100. *. tolerance)
  | _ ->
    Printf.eprintf "baseline check FAILED against %s:\n" file;
    List.iter (Printf.eprintf "  %s\n") offenders;
    exit 1

let () =
  let rec split_check acc = function
    | "--check" :: file :: rest -> (Some file, List.rev_append acc rest)
    | "--check" :: [] ->
      Printf.eprintf "--check requires a baseline file argument\n";
      exit 2
    | arg :: rest -> split_check (arg :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let check, names = split_check [] (List.tl (Array.to_list Sys.argv)) in
  let requested = match names with [] -> List.map fst sections | _ -> names in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some run -> run ()
      | None ->
        Printf.eprintf "unknown section %s (have: %s)\n" name
          (String.concat ", " (List.map fst sections));
        exit 2)
    requested;
  write_metrics ();
  Option.iter check_baseline check
