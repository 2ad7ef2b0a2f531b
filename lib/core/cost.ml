module Analysis = Mhla_reuse.Analysis
module Hierarchy = Mhla_arch.Hierarchy
module Layer = Mhla_arch.Layer

type breakdown = {
  compute_cycles : int;
  access_stall_cycles : int;
  transfer_stall_cycles : int;
  dma_setup_cycles : int;
  total_cycles : int;
  access_energy_pj : float;
  transfer_energy_pj : float;
  dma_energy_pj : float;
  total_energy_pj : float;
}

let bt_cycles_per_issue (m : Mapping.t) (bt : Mapping.block_transfer) =
  if bt.Mapping.bytes_per_issue = 0 then 0
  else begin
    let src = Hierarchy.layer m.Mapping.hierarchy bt.Mapping.src_layer in
    let dst = Hierarchy.layer m.Mapping.hierarchy bt.Mapping.dst_layer in
    let bandwidth =
      min src.Layer.bandwidth_bytes_per_cycle dst.Layer.bandwidth_bytes_per_cycle
    in
    let burst =
      (bt.Mapping.bytes_per_issue + bandwidth - 1) / bandwidth
    in
    src.Layer.latency_cycles + burst
  end

let access_contribution (m : Mapping.t) ~level (info : Analysis.info) =
  let layer = Hierarchy.layer m.Mapping.hierarchy level in
  let n = info.Analysis.executions in
  let stall = n * layer.Layer.latency_cycles in
  let energy =
    match info.Analysis.direction with
    | Mhla_ir.Access.Read -> float_of_int n *. layer.Layer.read_energy_pj
    | Mhla_ir.Access.Write -> float_of_int n *. layer.Layer.write_energy_pj
  in
  (stall, energy)

let access_costs (m : Mapping.t) =
  let add (stall, energy) (info : Analysis.info) =
    let s, e =
      access_contribution m
        ~level:(Mapping.serving_layer m info.Analysis.ref_)
        info
    in
    (stall + s, energy +. e)
  in
  List.fold_left add (0, 0.) m.Mapping.infos

let bt_contribution ?(hidden = 0) ~dma (m : Mapping.t)
    (bt : Mapping.block_transfer) =
  let per_issue = bt_cycles_per_issue m bt in
  let hidden = min per_issue (max 0 hidden) in
  let stall = bt.Mapping.issues * (per_issue - hidden) in
  let setup_cycles, dma_energy =
    match dma with
    | Some d ->
      ( bt.Mapping.issues * d.Mhla_arch.Dma.setup_cycles,
        float_of_int bt.Mapping.issues *. d.Mhla_arch.Dma.setup_energy_pj )
    | None -> (0, 0.)
  in
  let src = Hierarchy.layer m.Mapping.hierarchy bt.Mapping.src_layer in
  let dst = Hierarchy.layer m.Mapping.hierarchy bt.Mapping.dst_layer in
  let element_bytes = bt.Mapping.bt_candidate.Mhla_reuse.Candidate.element_bytes in
  let elements = bt.Mapping.total_bytes / max 1 element_bytes in
  (* A fetch reads the source and writes the destination; a
     write-back streams the other way, same element count. *)
  let per_element =
    if bt.Mapping.is_writeback then
      Layer.burst_read_energy_pj dst +. Layer.burst_write_energy_pj src
    else Layer.burst_read_energy_pj src +. Layer.burst_write_energy_pj dst
  in
  let energy = float_of_int elements *. per_element in
  (stall, setup_cycles, energy, dma_energy)

let transfer_costs ?(hidden_per_issue = fun _ -> 0) (m : Mapping.t) =
  let dma =
    if Hierarchy.has_dma m.Mapping.hierarchy then
      Some (Hierarchy.dma_exn m.Mapping.hierarchy)
    else None
  in
  let add (stall, setup_cycles, energy, dma_energy)
      (bt : Mapping.block_transfer) =
    let s, su, e, d =
      bt_contribution ~hidden:(hidden_per_issue bt.Mapping.bt_id) ~dma m bt
    in
    (stall + s, setup_cycles + su, energy +. e, dma_energy +. d)
  in
  List.fold_left add (0, 0, 0., 0.) (Mapping.block_transfers m)

let evaluate ?hidden_per_issue (m : Mapping.t) =
  let compute = Mhla_ir.Program.total_work_cycles m.Mapping.program in
  let access_stall, access_energy = access_costs m in
  let transfer_stall, dma_setup, transfer_energy, dma_energy =
    transfer_costs ?hidden_per_issue m
  in
  {
    compute_cycles = compute;
    access_stall_cycles = access_stall;
    transfer_stall_cycles = transfer_stall;
    dma_setup_cycles = dma_setup;
    total_cycles = compute + access_stall + transfer_stall + dma_setup;
    access_energy_pj = access_energy;
    transfer_energy_pj = transfer_energy;
    dma_energy_pj = dma_energy;
    total_energy_pj = access_energy +. transfer_energy +. dma_energy;
  }

let ideal (m : Mapping.t) =
  evaluate ~hidden_per_issue:(fun _ -> max_int) m

let lower_bound ~infos program hierarchy =
  let layers = hierarchy.Hierarchy.layers in
  let fold f init = List.fold_left f init layers in
  let min_latency =
    fold (fun a (l : Layer.t) -> min a l.Layer.latency_cycles) max_int
  in
  let min_read =
    fold (fun a (l : Layer.t) -> Float.min a l.Layer.read_energy_pj) infinity
  in
  let min_write =
    fold (fun a (l : Layer.t) -> Float.min a l.Layer.write_energy_pj) infinity
  in
  let add (stall, energy) (info : Analysis.info) =
    let n = info.Analysis.executions in
    let e =
      match info.Analysis.direction with
      | Mhla_ir.Access.Read -> float_of_int n *. min_read
      | Mhla_ir.Access.Write -> float_of_int n *. min_write
    in
    (stall + (n * min_latency), energy +. e)
  in
  let stall, energy = List.fold_left add (0, 0.) infos in
  (Mhla_ir.Program.total_work_cycles program + stall, energy)

type objective = Energy | Cycles | Energy_delay

let scalar_of objective ~total_cycles ~total_energy_pj =
  match objective with
  | Energy -> total_energy_pj
  | Cycles -> float_of_int total_cycles
  | Energy_delay -> total_energy_pj *. float_of_int total_cycles

let scalar objective b =
  scalar_of objective ~total_cycles:b.total_cycles
    ~total_energy_pj:b.total_energy_pj

let pp_objective ppf = function
  | Energy -> Fmt.string ppf "energy"
  | Cycles -> Fmt.string ppf "cycles"
  | Energy_delay -> Fmt.string ppf "energy-delay"

let loop_iteration_cycles (m : Mapping.t) ~iter =
  if Mhla_ir.Program.iterator_trip m.Mapping.program iter = None then
    Mhla_util.Error.invalidf ~context:"Cost.loop_iteration_cycles"
      "unknown iterator %s" iter;
  let per_stmt acc (ctx : Mhla_ir.Program.context) =
    let rec inner_trip = function
      | [] -> None (* stmt not inside [iter] *)
      | (name, _) :: rest when name = iter ->
        Some (List.fold_left (fun p (_, t) -> p * t) 1 rest)
      | _ :: rest -> inner_trip rest
    in
    match inner_trip ctx.Mhla_ir.Program.loops with
    | None -> acc
    | Some executions_per_iteration ->
      let stmt = ctx.Mhla_ir.Program.stmt in
      let stall_per_exec =
        List.fold_left
          (fun s (i : int) ->
            let ref_ = { Analysis.stmt = stmt.Mhla_ir.Stmt.name; index = i } in
            let layer =
              Hierarchy.layer m.Mapping.hierarchy (Mapping.serving_layer m ref_)
            in
            s + layer.Layer.latency_cycles)
          0
          (List.init (List.length stmt.Mhla_ir.Stmt.accesses) Fun.id)
      in
      acc
      + (executions_per_iteration
        * (stmt.Mhla_ir.Stmt.work_cycles + stall_per_exec))
  in
  Mhla_ir.Program.fold_stmts m.Mapping.program ~init:0 ~f:per_stmt

let pp_breakdown ppf b =
  Fmt.pf ppf
    "@[<v>cycles: %d (compute %d, access %d, transfer %d, dma %d)@,\
     energy: %.1f pJ (access %.1f, transfer %.1f, dma %.1f)@]"
    b.total_cycles b.compute_cycles b.access_stall_cycles
    b.transfer_stall_cycles b.dma_setup_cycles b.total_energy_pj
    b.access_energy_pj b.transfer_energy_pj b.dma_energy_pj
