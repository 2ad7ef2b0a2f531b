module Analysis = Mhla_reuse.Analysis
module Assign = Mhla_core.Assign
module Engine = Mhla_core.Engine
module Error = Mhla_util.Error
module Hierarchy = Mhla_arch.Hierarchy
module Mapping = Mhla_core.Mapping
module Occupancy = Mhla_lifetime.Occupancy
module Prefetch = Mhla_core.Prefetch
module Program = Mhla_ir.Program

type stats = {
  moves_applied : int;
  schedule_updates : int;
  levels_recomputed : int;
  placements_relinted : int;
  plans_rechecked : int;
}

(* Findings bucketed by what invalidates them, mirroring the cost
   engine's dirty sets:

   - [fixed]: pure functions of the program (bounds, program lints,
     recurrences) — computed once at {!create}, never again;
   - [chain]: per-access chain lints, dirtied only by a
     [Set_placement] of that access;
   - [transfer]: transfer lints over the derived BT list — any move
     can change the list, but the recomputation is linear and tiny;
   - [level]: per-layer capacity findings, dirtied by the layers a
     move touches (old and new chain layers / promotion levels) and by
     every schedule change (TE buffers live on layers);
   - [plan]: per-plan dma-race and interference-containment findings —
     functions of the plan, the program and the hierarchy only, so
     dirtied exclusively by {!set_schedule};
   - [sched_global]: priority-contiguity and tie advisories — cheap
     whole-schedule recomputations on {!set_schedule}.

   {!report} concatenates the buckets and funnels them through the
   same {!Verify.report} normalisation the batch verifier uses, so
   [report t = Verify.run (subject t)] holds by construction — the
   invariant the fuzz oracle's check #10 hammers. *)
type t = {
  solution : Fixpoint.solution;
  policy : Occupancy.policy;
  suppress : Suppress.t;
  fixed : Diagnostic.t list;
  chain : (Analysis.access_ref, Diagnostic.t list) Hashtbl.t;
  level : (int, Diagnostic.t list) Hashtbl.t;
  mutable transfer : Diagnostic.t list;
  mutable plan : Diagnostic.t list;
  mutable sched_global : Diagnostic.t list;
  mutable mapping : Mapping.t;
  mutable schedule : Prefetch.schedule option;
  moves_applied : int ref;
  schedule_updates : int ref;
  levels_recomputed : int ref;
  placements_relinted : int ref;
  plans_rechecked : int ref;
}

let recompute_level t level =
  incr t.levels_recomputed;
  Hashtbl.replace t.level level
    (Capacity.check_level t.solution ?schedule:t.schedule ~policy:t.policy
       ~budget:None t.mapping ~level)

let recompute_plans t =
  match t.schedule with
  | None ->
    t.plan <- [];
    t.sched_global <- []
  | Some schedule ->
    t.plan <-
      List.concat_map
        (fun plan ->
          incr t.plans_rechecked;
          Dma_race.check_plan t.mapping plan
          @ Interference.check_containment t.solution plan)
        schedule.Prefetch.plans;
    t.sched_global <-
      Interference.check_priorities schedule
      @ Determinism.check_ties t.mapping schedule

let create ?schedule ?(policy = Occupancy.In_place) ?(suppress = Suppress.empty)
    (m : Mapping.t) =
  let program = m.Mapping.program in
  let solution = Fixpoint.analyze program in
  let fixed =
    let program_subject = Pass.subject ~analysis:solution program in
    Bounds.pass.Pass.run program_subject
    @ Lints.array_lints program @ Lints.loop_lints program
    @ Determinism.check_recurrences solution program
  in
  let t =
    {
      solution;
      policy;
      suppress;
      fixed;
      chain = Hashtbl.create 32;
      level = Hashtbl.create 8;
      transfer = Lints.transfer_lints m;
      plan = [];
      sched_global = [];
      mapping = m;
      schedule;
      moves_applied = ref 0;
      schedule_updates = ref 0;
      levels_recomputed = ref 0;
      placements_relinted = ref 0;
      plans_rechecked = ref 0;
    }
  in
  List.iter
    (fun (ref_, placement) ->
      Hashtbl.replace t.chain ref_
        (Lints.placement_chain_lints (ref_, placement)))
    m.Mapping.placements;
  List.iter
    (fun level -> recompute_level t level)
    (Hierarchy.on_chip_levels m.Mapping.hierarchy);
  recompute_plans t;
  t

let chain_layers = function
  | Mapping.Direct -> []
  | Mapping.Chain links ->
    List.map (fun (l : Mapping.chain_link) -> l.Mapping.layer) links

let on_chip t = Hierarchy.on_chip_levels t.mapping.Mapping.hierarchy

let apply t move =
  let dirty_levels =
    match move with
    | Engine.Set_placement (ref_, placement) ->
      let old_layers = chain_layers (Mapping.placement_of t.mapping ref_) in
      t.mapping <- Assign.apply_move t.mapping move;
      incr t.placements_relinted;
      Hashtbl.replace t.chain ref_
        (Lints.placement_chain_lints (ref_, placement));
      old_layers @ chain_layers placement
    | Engine.Set_array (array, new_level) ->
      let old_level =
        List.assoc_opt array t.mapping.Mapping.array_layers
      in
      t.mapping <- Assign.apply_move t.mapping move;
      List.filter_map Fun.id [ old_level; new_level ]
  in
  t.transfer <- Lints.transfer_lints t.mapping;
  let on_chip = on_chip t in
  List.iter
    (fun level -> recompute_level t level)
    (List.sort_uniq compare
       (List.filter (fun l -> List.mem l on_chip) dirty_levels));
  incr t.moves_applied

let set_schedule t schedule =
  t.schedule <- schedule;
  incr t.schedule_updates;
  recompute_plans t;
  (* TE double buffers occupy layers: every level's peak moved. *)
  List.iter (fun level -> recompute_level t level) (on_chip t)

(* Jump to an arbitrary mapping of the same problem by diffing it into
   moves — what an annealing search needs when its answer is the best
   state seen, not the current one. *)
let rebase t (target : Mapping.t) =
  let m = t.mapping in
  let mismatch =
    if m.Mapping.program.Program.name <> target.Mapping.program.Program.name
    then Some "program"
    else if m.Mapping.hierarchy <> target.Mapping.hierarchy then
      Some "hierarchy"
    else if m.Mapping.transfer_mode <> target.Mapping.transfer_mode then
      Some "transfer mode"
    else None
  in
  Option.iter
    (fun facet ->
      Error.invalidf ~context:"Incremental.rebase"
        ~hint:"create the verifier from Mapping.direct with the solve's \
               own transfer mode and hierarchy (see Live.of_config)"
        "target mapping solves a different problem (%s differs; program %s \
         vs %s)"
        facet target.Mapping.program.Program.name
        m.Mapping.program.Program.name)
    mismatch;
  List.iter
    (fun (ref_, placement) ->
      if Mapping.placement_of t.mapping ref_ <> placement then
        apply t (Engine.Set_placement (ref_, placement)))
    target.Mapping.placements;
  List.iter
    (fun (decl : Mhla_ir.Array_decl.t) ->
      let array = decl.Mhla_ir.Array_decl.name in
      let current = List.assoc_opt array t.mapping.Mapping.array_layers in
      let wanted = List.assoc_opt array target.Mapping.array_layers in
      if current <> wanted then apply t (Engine.Set_array (array, wanted)))
    m.Mapping.program.Program.arrays

let report t =
  let chain =
    (* Hashtbl order is arbitrary; normalisation sorts, but fold in a
       fixed order anyway so even pre-normal diagnostics are stable. *)
    List.concat_map
      (fun (ref_, _) ->
        match Hashtbl.find_opt t.chain ref_ with
        | Some ds -> ds
        | None -> [])
      t.mapping.Mapping.placements
  in
  let levels =
    List.concat_map
      (fun level ->
        match Hashtbl.find_opt t.level level with
        | Some ds -> ds
        | None -> [])
      (on_chip t)
  in
  Verify.report ~suppress:t.suppress
    ~subject:t.mapping.Mapping.program.Program.name
    ~passes_run:Verify.pass_names
    (t.fixed @ chain @ t.transfer @ levels @ t.plan @ t.sched_global)

let mapping t = t.mapping

let schedule t = t.schedule

let solution t = t.solution

let subject t =
  Pass.of_mapping ?schedule:t.schedule ~policy:t.policy ~analysis:t.solution
    t.mapping

let stats t =
  {
    moves_applied = !(t.moves_applied);
    schedule_updates = !(t.schedule_updates);
    levels_recomputed = !(t.levels_recomputed);
    placements_relinted = !(t.placements_relinted);
    plans_rechecked = !(t.plans_rechecked);
  }
