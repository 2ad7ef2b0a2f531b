module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Hierarchy = Mhla_arch.Hierarchy
module Occupancy = Mhla_lifetime.Occupancy
module Schedule = Mhla_lifetime.Schedule
module Telemetry = Mhla_obs.Telemetry

type limit = Fully_hidden | Size_bound | Dependency_bound | Not_extendable

let limit_label = function
  | Fully_hidden -> "fully-hidden"
  | Size_bound -> "size-bound"
  | Dependency_bound -> "dependency-bound"
  | Not_extendable -> "not-extendable"

type candidate = {
  bt : Mapping.block_transfer;
  bt_time : int;
  sort_factor : float;
  freedom : string list;
}

type plan = {
  bt : Mapping.block_transfer;
  bt_time : int;
  sort_factor : float;
  freedom : string list;
  extended : string list;
  extra_buffers : int;
  hidden_cycles : int;
  limit : limit;
  dma_priority : int;
}

type schedule = { plans : plan list }

let is_dma_eligible ~defer_writebacks (m : Mapping.t)
    (bt : Mapping.block_transfer) =
  Hierarchy.has_dma m.Mapping.hierarchy
  && ((not bt.Mapping.is_writeback) || defer_writebacks)
  && bt.Mapping.src_layer = Hierarchy.main_memory_level m.Mapping.hierarchy
  && bt.Mapping.issues > 0

(* A producer under [iter] only races a prefetch when the region it
   writes can overlap the region the prefetch reads; a deferred drain
   is additionally racing any {e reader} of the drained region.
   Disjoint bounding boxes leave the loop free. [owner] is the
   candidate's own access, which never blocks itself. *)
let loop_carries_dependence (program : Mhla_ir.Program.t) ~iter ~array
    ~source_box ~writeback ~owner =
  let owner_stmt, owner_index = owner in
  let check acc (ctx : Mhla_ir.Program.context) =
    acc
    ||
    if not (List.mem_assoc iter ctx.Mhla_ir.Program.loops) then false
    else begin
      let stmt = ctx.Mhla_ir.Program.stmt in
      List.exists
        (fun (k, (a : Mhla_ir.Access.t)) ->
          let is_owner =
            stmt.Mhla_ir.Stmt.name = owner_stmt && k = owner_index
          in
          (not is_owner)
          && a.Mhla_ir.Access.array = array
          && (Mhla_ir.Access.is_write a || writeback)
          && Mhla_ir.Access.boxes_intersect source_box
               (Mhla_ir.Access.box ctx.Mhla_ir.Program.loops a))
        (List.mapi (fun k a -> (k, a)) stmt.Mhla_ir.Stmt.accesses)
    end
  in
  Mhla_ir.Program.fold_stmts program ~init:false ~f:check

(* dep_analysis + loops_between of Figure 1: walk outward from the
   refresh loop; a loop is free when advancing the prefetch across it
   cannot race a producer, i.e. no statement under it writes the
   source array. The first writing loop stops the walk. *)
let candidate_freedom program (info : Analysis.info) (c : Candidate.t) =
  match c.Candidate.refresh_iter with
  | None -> []
  | Some refresh ->
    let loops = info.Analysis.loops in
    let source_box =
      match
        Mhla_ir.Program.find_context program ~stmt:c.Candidate.stmt
      with
      | Some ctx ->
        Mhla_ir.Access.box loops
          (List.nth ctx.Mhla_ir.Program.stmt.Mhla_ir.Stmt.accesses
             c.Candidate.access_index)
      | None -> []
    in
    (* Enclosing loops come outermost-first; the extension walks from
       the refresh loop outward, so keep the prefix up to the refresh
       loop and orient it refresh-first: [refresh; next-outer; ...]. *)
    let rec outward acc = function
      | [] -> [] (* refresh not found: no freedom *)
      | (iter, _) :: _ when iter = refresh -> iter :: acc
      | (iter, _) :: rest -> outward (iter :: acc) rest
    in
    let innermost_first = outward [] loops in
    let rec take_free = function
      | [] -> []
      | iter :: rest ->
        if
          loop_carries_dependence program ~iter ~array:c.Candidate.array
            ~source_box
            ~writeback:(c.Candidate.direction = Mhla_ir.Access.Write)
            ~owner:(c.Candidate.stmt, c.Candidate.access_index)
        then []
        else iter :: take_free rest
    in
    take_free innermost_first

(* The candidate's own access may be absent from [m.infos] only for
   synthetic mappings; no info means no known enclosing loops, hence
   no freedom. *)
let freedom_loops (m : Mapping.t) (bt : Mapping.block_transfer) =
  let c = bt.Mapping.bt_candidate in
  match
    Analysis.find m.Mapping.infos
      { Analysis.stmt = c.Candidate.stmt; index = c.Candidate.access_index }
  with
  | None -> []
  | Some info -> candidate_freedom m.Mapping.program info c

let candidates ?(defer_writebacks = false) (m : Mapping.t) =
  List.filter_map
    (fun bt ->
      if not (is_dma_eligible ~defer_writebacks m bt) then None
      else begin
        let bt_time = Cost.bt_cycles_per_issue m bt in
        let sort_factor =
          if bt.Mapping.bytes_per_issue = 0 then 0.
          else float_of_int bt_time /. float_of_int bt.Mapping.bytes_per_issue
        in
        Some
          ({ bt; bt_time; sort_factor; freedom = freedom_loops m bt }
            : candidate)
      end)
    (Mapping.block_transfers m)

let plan ?(telemetry = Telemetry.noop) (m : Mapping.t) candidates =
  let sched = m.Mapping.schedule in
  (* Drains only compete for whatever slack the prefetches leave:
     fetches keep their relative order and go first. *)
  let ordered =
    let fetches, drains =
      List.partition
        (fun (c : candidate) -> not c.bt.Mapping.is_writeback)
        candidates
    in
    fetches @ drains
  in
  (* Extensions already granted consume on-chip space for everyone that
     follows: thread the extra-buffer list through the greedy pass. *)
  let extend (extras, plans, priority)
      ({ bt; bt_time; sort_factor; freedom } : candidate) =
    let c = bt.Mapping.bt_candidate in
    (* Extending across the refresh loop itself only needs room for
       the next window's new part when transfers are delta-sized; any
       further (outer-loop) step re-primes a whole window. *)
    let buffer_bytes iter =
      let sliding =
        m.Mapping.transfer_mode = Candidate.Delta
        && c.Candidate.refresh_iter = Some iter
      in
      if sliding then max 1 c.Candidate.delta_bytes_per_issue
      else c.Candidate.footprint_bytes
    in
    let buffer_for iter =
      ( bt.Mapping.dst_layer,
        {
          Occupancy.label =
            Printf.sprintf "%s#te@%s" bt.Mapping.bt_id iter;
          interval = Schedule.loop_interval sched iter;
          bytes = buffer_bytes iter;
        } )
    in
    let rec walk extras granted hidden = function
      | [] ->
        let limit = if granted = [] then Not_extendable else Dependency_bound in
        (extras, List.rev granted, hidden, limit)
      | iter :: rest ->
        let candidate_extras = buffer_for iter :: extras in
        if not (Mapping.occupancy_ok ~extra:candidate_extras m) then
          (extras, List.rev granted, hidden, Size_bound)
        else begin
          let cycles = Cost.loop_iteration_cycles m ~iter in
          let hidden = hidden + cycles in
          if hidden >= bt_time then
            (candidate_extras, List.rev (iter :: granted), bt_time,
             Fully_hidden)
          else walk candidate_extras (iter :: granted) hidden rest
        end
    in
    let extras, extended, hidden, limit =
      if bt_time = 0 then (extras, [], 0, Fully_hidden)
      else if freedom = [] then (extras, [], 0, Not_extendable)
      else walk extras [] 0 freedom
    in
    let plan =
      {
        bt;
        bt_time;
        sort_factor;
        freedom;
        extended;
        extra_buffers = List.length extended;
        hidden_cycles = hidden;
        limit;
        dma_priority = priority;
      }
    in
    (* One event per block transfer: the TE decision and everything
       that shaped it, the per-BT attribution the analytic report
       aggregates away. *)
    Telemetry.instant telemetry ~cat:"te" "te.plan"
      ~args:(fun () ->
        [ ("bt", Telemetry.Str bt.Mapping.bt_id);
          ("bt_time", Telemetry.Int plan.bt_time);
          ("sort_factor", Telemetry.Float plan.sort_factor);
          ("freedom", Telemetry.Str (String.concat "," plan.freedom));
          ("granted", Telemetry.Str (String.concat "," plan.extended));
          ("extra_buffers", Telemetry.Int plan.extra_buffers);
          ("hidden_cycles", Telemetry.Int plan.hidden_cycles);
          ("limit", Telemetry.Str (limit_label plan.limit));
          ("dma_priority", Telemetry.Int plan.dma_priority);
          ("writeback", Telemetry.Bool bt.Mapping.is_writeback) ]);
    (extras, plan :: plans, priority + 1)
  in
  let _, plans, _ = List.fold_left extend ([], [], 0) ordered in
  { plans = List.rev plans }

let run ?defer_writebacks ?(telemetry = Telemetry.noop) m =
  Telemetry.span telemetry ~cat:"te" "te.run" @@ fun () ->
  plan ~telemetry m
    (List.stable_sort
       (fun (a : candidate) b -> Float.compare b.sort_factor a.sort_factor)
       (candidates ?defer_writebacks m))

let hidden_per_issue schedule bt_id =
  match
    List.find_opt (fun p -> p.bt.Mapping.bt_id = bt_id) schedule.plans
  with
  | Some p -> p.hidden_cycles
  | None -> 0

let evaluate m schedule =
  Cost.evaluate ~hidden_per_issue:(hidden_per_issue schedule) m

let total_hidden_cycles schedule =
  List.fold_left
    (fun acc p -> acc + (p.bt.Mapping.issues * p.hidden_cycles))
    0 schedule.plans

let pp_limit ppf l = Fmt.string ppf (limit_label l)

let pp_plan ppf p =
  Fmt.pf ppf
    "%s: time %d, factor %.3f, freedom [%a], extended [%a], hidden %d/%d \
     (%a, prio %d)"
    p.bt.Mapping.bt_id p.bt_time p.sort_factor
    Fmt.(list ~sep:comma string)
    p.freedom
    Fmt.(list ~sep:comma string)
    p.extended p.hidden_cycles p.bt_time pp_limit p.limit p.dma_priority
