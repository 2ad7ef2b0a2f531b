module Telemetry = Mhla_obs.Telemetry

type result = {
  program : Mhla_ir.Program.t;
  hierarchy : Mhla_arch.Hierarchy.t;
  baseline : Cost.breakdown;
  assign : Assign.result;
  te : Prefetch.schedule;
  after_assign : Cost.breakdown;
  after_te : Cost.breakdown;
  ideal : Cost.breakdown;
}

type search =
  | Greedy
  | First_improvement
  | Annealing of { seed : int64; iterations : int }

let run ?config ?order ?(search = Greedy) ?defer_writebacks
    ?(telemetry = Telemetry.noop) ?reuse ?checkpoint ?on_commit program
    hierarchy =
  Telemetry.span telemetry ~cat:"explore" "explore.run"
    ~args:(fun () ->
      [ ("program", Telemetry.Str program.Mhla_ir.Program.name) ])
  @@ fun () ->
  let stage name f = Telemetry.span telemetry ~cat:"explore" name f in
  let transfer_mode =
    match config with
    | Some c -> c.Assign.transfer_mode
    | None -> Assign.default_config.Assign.transfer_mode
  in
  let baseline =
    stage "explore.baseline" @@ fun () ->
    Cost.evaluate (Mapping.direct ~transfer_mode ?reuse program hierarchy)
  in
  let assign =
    stage "explore.assign" @@ fun () ->
    match search with
    | Greedy ->
      Assign.greedy ?config ~telemetry ?reuse ?checkpoint ?on_commit program
        hierarchy
    | First_improvement ->
      Assign.greedy ?config ~first_improvement:true ~telemetry ?reuse
        ?checkpoint ?on_commit program hierarchy
    | Annealing { seed; iterations } ->
      Assign.simulated_annealing ?config ~telemetry ?reuse ?checkpoint
        ?on_commit ~seed ~iterations program hierarchy
  in
  let te =
    stage "explore.te" @@ fun () ->
    Prefetch.run ?order ?defer_writebacks ~telemetry
      assign.Assign.mapping
  in
  stage "explore.evaluate" @@ fun () ->
  {
    program;
    hierarchy;
    baseline;
    assign;
    te;
    after_assign = assign.Assign.breakdown;
    after_te = Prefetch.evaluate assign.Assign.mapping te;
    ideal = Cost.ideal assign.Assign.mapping;
  }

let normalised_cycles r (b : Cost.breakdown) =
  float_of_int b.Cost.total_cycles
  /. float_of_int r.baseline.Cost.total_cycles

let normalised_energy r (b : Cost.breakdown) =
  b.Cost.total_energy_pj /. r.baseline.Cost.total_energy_pj

let time_after_assign r = normalised_cycles r r.after_assign

let time_after_te r = normalised_cycles r r.after_te

let time_ideal r = normalised_cycles r r.ideal

let energy_after_assign r = normalised_energy r r.after_assign

let energy_after_te r = normalised_energy r r.after_te

let assign_time_gain_percent r =
  Mhla_util.Stats.percent_gain
    ~baseline:(float_of_int r.baseline.Cost.total_cycles)
    ~improved:(float_of_int r.after_assign.Cost.total_cycles)

let te_extra_gain_percent r =
  Mhla_util.Stats.percent_gain
    ~baseline:(float_of_int r.after_assign.Cost.total_cycles)
    ~improved:(float_of_int r.after_te.Cost.total_cycles)

let energy_gain_percent r =
  Mhla_util.Stats.percent_gain ~baseline:r.baseline.Cost.total_energy_pj
    ~improved:r.after_assign.Cost.total_energy_pj

type sweep_point = { onchip_bytes : int; point_result : result }

let sweep ?config ?order ?(dma = true) ?search ?jobs
    ?(telemetry = Telemetry.noop) ?checkpoint ~sizes program =
  (* Duplicate sizes would burn a worker domain on identical work;
     dedupe and sort so the fan-out sees each platform once. *)
  let sizes = List.sort_uniq compare sizes in
  Telemetry.span telemetry ~cat:"sweep" "explore.sweep"
    ~args:(fun () ->
      [ ("program", Telemetry.Str program.Mhla_ir.Program.name);
        ("points", Telemetry.Int (List.length sizes)) ])
  @@ fun () ->
  (* The reuse analysis and the program timeline are size-independent:
     hoist them out of the per-size loop and share the (immutable)
     result across every point — and across every worker domain. *)
  let reuse =
    Telemetry.span telemetry ~cat:"sweep" "sweep.precompute" @@ fun () ->
    Mapping.precompute program
  in
  let point child onchip_bytes =
    Telemetry.span child ~cat:"sweep" "sweep.point"
      ~args:(fun () -> [ ("onchip_bytes", Telemetry.Int onchip_bytes) ])
    @@ fun () ->
    let hierarchy = Mhla_arch.Presets.two_level ~dma ~onchip_bytes () in
    {
      onchip_bytes;
      point_result =
        run ?config ?order ?search ~telemetry:child ?checkpoint ~reuse
          program hierarchy;
    }
  in
  (* Each worker domain records into its own child sink (sinks are not
     thread-safe); the children merge back in worker order after the
     join, which makes the final event multiset independent of [jobs]. *)
  Mhla_util.Domain_pool.map_with ?jobs
    ~init:(fun i -> Telemetry.child telemetry ~tid:(i + 1))
    ~around:(fun child k ->
      Telemetry.span child ~cat:"sweep" "sweep.worker" k)
    ~finish:(Telemetry.merge_children telemetry)
    point sizes

(* --- per-layer budget-vector exploration ------------------------------- *)

module Pareto = Mhla_util.Pareto

type pareto_point = { budgets : int list; point_result : result }

type pareto_stats = {
  grid_points : int;
  evaluated : int;
  pruned : int;
  deadline_skipped : int;
  regions : int;
  regions_pruned : int;
}

type pareto_outcome = {
  frontier : pareto_point Pareto.Nd.t;
  stats : pareto_stats;
  partial : bool;
}

let pareto_objectives p =
  [|
    float_of_int (List.fold_left ( + ) 0 p.budgets);
    float_of_int p.point_result.after_te.Cost.total_cycles;
    p.point_result.after_te.Cost.total_energy_pj;
  |]

(* The compact shape of an evaluated point that the workers share for
   pruning decisions. *)
type entry = { e_size : int; e_cycles : int; e_energy : float }

let covers q e =
  q.e_size <= e.e_size && q.e_cycles <= e.e_cycles && q.e_energy <= e.e_energy

let rec chunk n = function
  | [] -> []
  | l ->
    let rec take k acc rest =
      if k = 0 then (List.rev acc, rest)
      else
        match rest with
        | [] -> (List.rev acc, [])
        | x :: tl -> take (k - 1) (x :: acc) tl
    in
    let region, rest = take n [] l in
    region :: chunk n rest

let pareto ?config ?order ?(dma = true) ?search ?jobs
    ?(telemetry = Telemetry.noop) ?checkpoint ?reuse ?on_point ~axes program
    =
  let grid = Mhla_arch.Presets.budget_grid ~axes in
  Telemetry.span telemetry ~cat:"pareto" "explore.pareto"
    ~args:(fun () ->
      [ ("program", Telemetry.Str program.Mhla_ir.Program.name);
        ("grid_points", Telemetry.Int (List.length grid)) ])
  @@ fun () ->
  let reuse =
    match reuse with
    | Some r -> r
    | None ->
      Telemetry.span telemetry ~cat:"pareto" "pareto.precompute" @@ fun () ->
      Mapping.precompute program
  in
  (* Regions: runs of the grid along the last (fastest-varying) axis;
     a single-axis grid degenerates to one region per point so the
     fan-out keeps sweep-like parallel granularity. *)
  let region_len =
    match List.rev axes with
    | [] -> 1
    | last :: _ :: _ -> List.length (List.sort_uniq compare last)
    | [ _ ] -> 1
  in
  let regions = chunk region_len grid in
  (* The best evaluated points so far, shared across workers: the
     anytime frontier snapshot the bound checks prune against. Pruning
     is sound regardless of snapshot timing — a region is only skipped
     when an already-evaluated point beats its monotone lower bound
     with strictly smaller size, which proves every point of the
     region strictly dominated — so the folded frontier below is
     independent of the worker count. *)
  let best = Atomic.make ([] : entry list) in
  let expired = Atomic.make false in
  let insert_entry e =
    let rec loop () =
      let old = Atomic.get best in
      if List.exists (fun q -> covers q e) old then ()
      else
        let kept = List.filter (fun q -> not (covers e q)) old in
        if not (Atomic.compare_and_set best old (e :: kept)) then loop ()
    in
    loop ()
  in
  let prunable ~size ~lb_cycles ~lb_energy =
    List.exists
      (fun q ->
        q.e_size < size && q.e_cycles <= lb_cycles
        && q.e_energy <= lb_energy)
      (Atomic.get best)
  in
  let bound budgets =
    let hierarchy = Mhla_arch.Presets.multi_level ~dma ~level_bytes:budgets () in
    let size = List.fold_left ( + ) 0 budgets in
    let lb_cycles, lb_energy =
      Cost.lower_bound ~infos:reuse.Mapping.infos program hierarchy
    in
    (hierarchy, size, lb_cycles, lb_energy)
  in
  let solve_point child budgets =
    let hierarchy, size, lb_cycles, lb_energy = bound budgets in
    if prunable ~size ~lb_cycles ~lb_energy then `Pruned
    else begin
      let r =
        run ?config ?order ?search ~telemetry:child ?checkpoint ~reuse
          program hierarchy
      in
      let p = { budgets; point_result = r } in
      insert_entry
        {
          e_size = size;
          e_cycles = r.after_te.Cost.total_cycles;
          e_energy = r.after_te.Cost.total_energy_pj;
        };
      Telemetry.instant child ~cat:"pareto" "pareto.point"
        ~args:(fun () ->
          [ ("budgets",
             Telemetry.Str
               (String.concat "," (List.map string_of_int budgets)));
            ("cycles", Telemetry.Int r.after_te.Cost.total_cycles);
            ("energy_pj", Telemetry.Float r.after_te.Cost.total_energy_pj) ]);
      Option.iter (fun f -> f p) on_point;
      `Evaluated p
    end
  in
  let do_region child region =
    let min_corner = List.hd region in
    Telemetry.span child ~cat:"pareto" "pareto.region"
      ~args:(fun () ->
        [ ("min_corner",
           Telemetry.Str
             (String.concat "," (List.map string_of_int min_corner)));
          ("points", Telemetry.Int (List.length region)) ])
    @@ fun () ->
    if Atomic.get expired then (false, List.map (fun _ -> `Skipped) region)
    else begin
      let _, size, lb_cycles, lb_energy = bound min_corner in
      if prunable ~size ~lb_cycles ~lb_energy then begin
        Telemetry.instant child ~cat:"pareto" "pareto.region_pruned"
          ~args:(fun () ->
            [ ("min_corner",
               Telemetry.Str
                 (String.concat "," (List.map string_of_int min_corner))) ]);
        (true, List.map (fun _ -> `Pruned) region)
      end
      else
        ( false,
          List.map
            (fun budgets ->
              if Atomic.get expired then `Skipped
              else
                match solve_point child budgets with
                | cell -> cell
                | exception
                    Mhla_util.Error.Error
                      { Mhla_util.Error.kind = Mhla_util.Error.Deadline; _ }
                  ->
                  Atomic.set expired true;
                  `Skipped)
            region )
    end
  in
  let per_region =
    Mhla_util.Domain_pool.map_with ?jobs
      ~init:(fun i -> Telemetry.child telemetry ~tid:(i + 1))
      ~around:(fun child k ->
        Telemetry.span child ~cat:"pareto" "pareto.worker" k)
      ~finish:(Telemetry.merge_children telemetry)
      do_region regions
  in
  (* The result frontier is folded from the evaluated points in
     canonical grid order — never from the racy snapshot — so the set
     and its payloads (first writer wins on equal objective vectors)
     are bit-identical for every [jobs] value. *)
  let evaluated = ref 0 and pruned = ref 0 and skipped = ref 0 in
  let regions_pruned = ref 0 in
  let frontier =
    List.fold_left
      (fun acc (region_pruned, cells) ->
        if region_pruned then incr regions_pruned;
        List.fold_left
          (fun acc cell ->
            match cell with
            | `Evaluated p ->
              incr evaluated;
              Pareto.Nd.add
                (Pareto.Nd.point ~objectives:(pareto_objectives p) p)
                acc
            | `Pruned ->
              incr pruned;
              acc
            | `Skipped ->
              incr skipped;
              acc)
          acc cells)
      Pareto.Nd.empty per_region
  in
  {
    frontier;
    stats =
      {
        grid_points = List.length grid;
        evaluated = !evaluated;
        pruned = !pruned;
        deadline_skipped = !skipped;
        regions = List.length regions;
        regions_pruned = !regions_pruned;
      };
    partial = Atomic.get expired;
  }

let pareto_energy points =
  let to_point p =
    Mhla_util.Pareto.point
      ~x:(float_of_int p.onchip_bytes)
      ~y:p.point_result.after_assign.Cost.total_energy_pj p
  in
  Mhla_util.Pareto.of_list (List.map to_point points)

let pareto_cycles points =
  let to_point p =
    Mhla_util.Pareto.point
      ~x:(float_of_int p.onchip_bytes)
      ~y:(float_of_int p.point_result.after_te.Cost.total_cycles)
      p
  in
  Mhla_util.Pareto.of_list (List.map to_point points)
