module Json = Mhla_util.Json
module Table = Mhla_util.Table

let summary ~name (r : Explore.result) =
  let te_detail =
    let hidden = Prefetch.total_hidden_cycles r.Explore.te in
    let plans = List.length r.Explore.te.Prefetch.plans in
    if plans = 0 then "TE not applicable (no DMA block transfers)"
    else Printf.sprintf "TE hid %d cycles across %d block transfers" hidden plans
  in
  Printf.sprintf
    "%s: step 1 cut execution time %.1f%% and energy %.1f%%; step 2 cut a \
     further %.1f%% of the remaining time (ideal bound %.2fx of baseline). %s."
    name
    (Explore.assign_time_gain_percent r)
    (Explore.energy_gain_percent r)
    (Explore.te_extra_gain_percent r)
    (Explore.time_ideal r) te_detail

let detailed ~name (r : Explore.result) =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "== %s ==" name;
  line "%s" (Fmt.str "%a" Mhla_arch.Hierarchy.pp r.Explore.hierarchy);
  line "-- out of the box --";
  line "%s" (Fmt.str "%a" Cost.pp_breakdown r.Explore.baseline);
  line "-- after step 1 (selection & assignment) --";
  line "%s" (Fmt.str "%a" Cost.pp_breakdown r.Explore.after_assign);
  line "-- after step 2 (time extensions) --";
  line "%s" (Fmt.str "%a" Cost.pp_breakdown r.Explore.after_te);
  line "-- ideal (0-wait block transfers) --";
  line "%s" (Fmt.str "%a" Cost.pp_breakdown r.Explore.ideal);
  line "-- mapping --";
  line "%s" (Fmt.str "%a" Mapping.pp r.Explore.assign.Assign.mapping);
  (let a = r.Explore.assign in
   let total = a.Assign.cache_hits + a.Assign.cache_misses in
   if total = 0 then
     line "-- assignment steps (%d evaluations, all full) --"
       a.Assign.evaluations
   else
     line
       "-- assignment steps (%d evaluations, %d probes; engine cache %d \
        hits / %d misses, %.1f%% hit rate) --"
       a.Assign.evaluations a.Assign.probes a.Assign.cache_hits
       a.Assign.cache_misses
       (100. *. float_of_int a.Assign.cache_hits /. float_of_int total));
  List.iter
    (fun (s : Assign.step) ->
      line "  %s (gain %.1f)" (Assign.describe_move s.Assign.move)
        s.Assign.gain)
    r.Explore.assign.Assign.steps;
  line "-- TE plans --";
  List.iter
    (fun p -> line "  %s" (Fmt.str "%a" Prefetch.pp_plan p))
    r.Explore.te.Prefetch.plans;
  Buffer.contents buf

let breakdown_to_json (b : Cost.breakdown) =
  Json.obj
    [ ("total_cycles", Json.int b.Cost.total_cycles);
      ("compute_cycles", Json.int b.Cost.compute_cycles);
      ("access_stall_cycles", Json.int b.Cost.access_stall_cycles);
      ("transfer_stall_cycles", Json.int b.Cost.transfer_stall_cycles);
      ("dma_setup_cycles", Json.int b.Cost.dma_setup_cycles);
      ("total_energy_pj", Json.float b.Cost.total_energy_pj);
      ("access_energy_pj", Json.float b.Cost.access_energy_pj);
      ("transfer_energy_pj", Json.float b.Cost.transfer_energy_pj);
      ("dma_energy_pj", Json.float b.Cost.dma_energy_pj) ]

let placement_to_json (r, placement) =
  let target =
    match placement with
    | Mapping.Direct -> Json.str "direct"
    | Mapping.Chain links ->
      Json.arr
        (List.map
           (fun (l : Mapping.chain_link) ->
             Json.obj
               [ ( "candidate",
                   Json.str l.Mapping.candidate.Mhla_reuse.Candidate.id );
                 ("layer", Json.int l.Mapping.layer);
                 ( "buffer_bytes",
                   Json.int
                     l.Mapping.candidate.Mhla_reuse.Candidate.footprint_bytes
                 ) ])
           links)
  in
  Json.obj
    [ ("access", Json.str (Fmt.str "%a" Mhla_reuse.Analysis.pp_access_ref r));
      ("placement", target) ]

let plan_to_json (p : Prefetch.plan) =
  Json.obj
    [ ("block_transfer", Json.str p.Prefetch.bt.Mapping.bt_id);
      ("bt_time_cycles", Json.int p.Prefetch.bt_time);
      ("hidden_cycles_per_issue", Json.int p.Prefetch.hidden_cycles);
      ("issues", Json.int p.Prefetch.bt.Mapping.issues);
      ("extended_loops", Json.arr (List.map Json.str p.Prefetch.extended));
      ("extra_buffers", Json.int p.Prefetch.extra_buffers);
      ("dma_priority", Json.int p.Prefetch.dma_priority) ]

let result_to_json ~name (r : Explore.result) =
  let mapping = r.Explore.assign.Assign.mapping in
  Json.obj
    [ ("application", Json.str name);
      ("baseline", breakdown_to_json r.Explore.baseline);
      ("after_assign", breakdown_to_json r.Explore.after_assign);
      ("after_te", breakdown_to_json r.Explore.after_te);
      ("ideal", breakdown_to_json r.Explore.ideal);
      ( "gains",
        Json.obj
          [ ( "assign_time_percent",
              Json.float (Explore.assign_time_gain_percent r) );
            ( "te_extra_time_percent",
              Json.float (Explore.te_extra_gain_percent r) );
            ("energy_percent", Json.float (Explore.energy_gain_percent r)) ]
      );
      ( "placements",
        Json.arr (List.map placement_to_json mapping.Mapping.placements) );
      ( "promoted_arrays",
        Json.arr
          (List.map
             (fun (a, l) ->
               Json.obj [ ("array", Json.str a); ("layer", Json.int l) ])
             mapping.Mapping.array_layers) );
      ( "time_extensions",
        Json.arr (List.map plan_to_json r.Explore.te.Prefetch.plans) ) ]

let results_to_json results =
  Json.arr (List.map (fun (name, r) -> result_to_json ~name r) results)

let sweep_to_json points =
  Json.arr
    (List.map
       (fun (p : Explore.sweep_point) ->
         Json.obj
           [ ("onchip_bytes", Json.int p.Explore.onchip_bytes);
             ( "result",
               result_to_json
                 ~name:
                   p.Explore.point_result.Explore.program
                     .Mhla_ir.Program.name
                 p.Explore.point_result ) ])
       points)

let figure2_table results =
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("out-of-box", Table.Right);
          ("MHLA", Table.Right);
          ("MHLA+TE", Table.Right);
          ("ideal", Table.Right);
          ("step1 gain", Table.Right);
          ("TE extra", Table.Right) ]
  in
  List.iter
    (fun (name, r) ->
      Table.add_row table
        [ name;
          "1.00";
          Table.cell_float (Explore.time_after_assign r);
          Table.cell_float (Explore.time_after_te r);
          Table.cell_float (Explore.time_ideal r);
          Table.cell_percent (Explore.assign_time_gain_percent r);
          Table.cell_percent (Explore.te_extra_gain_percent r) ])
    results;
  table

let figure3_table results =
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("out-of-box", Table.Right);
          ("MHLA", Table.Right);
          ("MHLA+TE", Table.Right);
          ("energy gain", Table.Right) ]
  in
  List.iter
    (fun (name, r) ->
      Table.add_row table
        [ name;
          "1.00";
          Table.cell_float (Explore.energy_after_assign r);
          Table.cell_float (Explore.energy_after_te r);
          Table.cell_percent (Explore.energy_gain_percent r) ])
    results;
  table

let headline_table results =
  let table =
    Table.create
      ~columns:
        [ ("application", Table.Left);
          ("time gain step1", Table.Right);
          ("extra time gain step2", Table.Right);
          ("energy gain", Table.Right);
          ("TE BTs", Table.Right);
          ("hidden cycles", Table.Right) ]
  in
  List.iter
    (fun (name, r) ->
      Table.add_row table
        [ name;
          Table.cell_percent (Explore.assign_time_gain_percent r);
          Table.cell_percent (Explore.te_extra_gain_percent r);
          Table.cell_percent (Explore.energy_gain_percent r);
          Table.cell_int (List.length r.Explore.te.Prefetch.plans);
          Table.cell_int (Prefetch.total_hidden_cycles r.Explore.te) ])
    results;
  table

let pareto_stats_to_json (s : Explore.pareto_stats) =
  Json.obj
    [ ("grid_points", Json.int s.Explore.grid_points);
      ("evaluated", Json.int s.Explore.evaluated);
      ("pruned", Json.int s.Explore.pruned);
      ("deadline_skipped", Json.int s.Explore.deadline_skipped);
      ("regions", Json.int s.Explore.regions);
      ("regions_pruned", Json.int s.Explore.regions_pruned) ]

let pareto_point_to_json (p : Explore.pareto_point) =
  let r = p.Explore.point_result in
  Json.obj
    [ ("budgets", Json.arr (List.map Json.int p.Explore.budgets));
      ( "onchip_bytes",
        Json.int (List.fold_left ( + ) 0 p.Explore.budgets) );
      ("cycles", Json.int r.Explore.after_te.Cost.total_cycles);
      ("energy_pj", Json.float r.Explore.after_te.Cost.total_energy_pj);
      ("time_vs_baseline", Json.float (Explore.time_after_te r));
      ("energy_vs_baseline", Json.float (Explore.energy_after_te r)) ]

let pareto_to_json (o : Explore.pareto_outcome) =
  Json.obj
    [ ("partial", Json.bool o.Explore.partial);
      ( "frontier",
        Json.arr
          (List.map
             (fun p ->
               pareto_point_to_json (Mhla_util.Pareto.Nd.payload p))
             (Mhla_util.Pareto.Nd.to_list o.Explore.frontier)) );
      ("stats", pareto_stats_to_json o.Explore.stats) ]

let pareto_table (o : Explore.pareto_outcome) =
  let table =
    Table.create
      ~columns:
        [ ("budgets (bytes/level)", Table.Left);
          ("on-chip total", Table.Right);
          ("cycles MHLA+TE", Table.Right);
          ("energy (pJ)", Table.Right);
          ("time vs base", Table.Right);
          ("energy vs base", Table.Right) ]
  in
  List.iter
    (fun nd ->
      let p = Mhla_util.Pareto.Nd.payload nd in
      let r = p.Explore.point_result in
      Table.add_row table
        [ String.concat "+" (List.map string_of_int p.Explore.budgets);
          Table.cell_int (List.fold_left ( + ) 0 p.Explore.budgets);
          Table.cell_int r.Explore.after_te.Cost.total_cycles;
          Table.cell_float ~decimals:0 r.Explore.after_te.Cost.total_energy_pj;
          Table.cell_float (Explore.time_after_te p.Explore.point_result);
          Table.cell_float (Explore.energy_after_te p.Explore.point_result) ])
    (Mhla_util.Pareto.Nd.to_list o.Explore.frontier);
  table

let sweep_table points =
  let table =
    Table.create
      ~columns:
        [ ("on-chip bytes", Table.Right);
          ("cycles base", Table.Right);
          ("cycles MHLA", Table.Right);
          ("cycles MHLA+TE", Table.Right);
          ("energy base (pJ)", Table.Right);
          ("energy MHLA (pJ)", Table.Right) ]
  in
  List.iter
    (fun (p : Explore.sweep_point) ->
      let r = p.Explore.point_result in
      Table.add_row table
        [ Table.cell_int p.Explore.onchip_bytes;
          Table.cell_int r.Explore.baseline.Cost.total_cycles;
          Table.cell_int r.Explore.after_assign.Cost.total_cycles;
          Table.cell_int r.Explore.after_te.Cost.total_cycles;
          Table.cell_float ~decimals:0 r.Explore.baseline.Cost.total_energy_pj;
          Table.cell_float ~decimals:0
            r.Explore.after_assign.Cost.total_energy_pj ])
    points;
  table
