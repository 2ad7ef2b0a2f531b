module Access = Mhla_ir.Access
module Candidate = Mhla_reuse.Candidate
module Cost = Mhla_core.Cost
module Hierarchy = Mhla_arch.Hierarchy
module Mapping = Mhla_core.Mapping
module Prefetch = Mhla_core.Prefetch
module Program = Mhla_ir.Program
module Stmt = Mhla_ir.Stmt

let name = "dma-race"

let diag ~code ?loc fmt =
  Diagnostic.makef ~code ~severity:Diagnostic.Error ~pass:name ?loc fmt

(* Does advancing the transfer across one iteration of [iter] race a
   conflicting access? A prefetch races producers of the region it
   reads; a deferred drain additionally races readers of the region it
   writes. The candidate's own access never conflicts with itself. *)
let loop_racy program ~iter ~array ~source_box ~drain ~owner =
  let owner_stmt, owner_index = owner in
  Program.fold_stmts program ~init:false ~f:(fun racy ctx ->
      racy
      || List.mem_assoc iter ctx.Program.loops
         && List.exists
              (fun (k, (a : Access.t)) ->
                let is_owner =
                  ctx.Program.stmt.Stmt.name = owner_stmt && k = owner_index
                in
                (not is_owner)
                && a.Access.array = array
                && (Access.is_write a || drain)
                && Access.boxes_intersect source_box
                     (Access.box ctx.Program.loops a))
              (List.mapi
                 (fun k a -> (k, a))
                 ctx.Program.stmt.Stmt.accesses))

(* Freedom loops of a plan's transfer, recomputed from the program:
   walk outward from the candidate's refresh loop, keeping loops until
   one carries a dependence. *)
let freedom_of_plan (m : Mapping.t) (plan : Prefetch.plan) =
  let c = plan.Prefetch.bt.Mapping.bt_candidate in
  match c.Candidate.refresh_iter with
  | None -> []
  | Some refresh -> (
    match
      Program.find_context m.Mapping.program ~stmt:c.Candidate.stmt
    with
    | None -> []
    | Some ctx ->
      let loops = ctx.Program.loops in
      let source_box =
        match
          List.nth_opt ctx.Program.stmt.Stmt.accesses c.Candidate.access_index
        with
        | Some a -> Access.box loops a
        | None -> []
      in
      (* [loops] is outermost-first; orient the prefix ending at the
         refresh loop refresh-first. An absent refresh loop leaves no
         freedom. *)
      let rec refresh_outward acc = function
        | [] -> []
        | (iter, _) :: _ when iter = refresh -> iter :: acc
        | (iter, _) :: rest -> refresh_outward (iter :: acc) rest
      in
      let rec free_prefix = function
        | [] -> []
        | iter :: rest ->
          if
            loop_racy m.Mapping.program ~iter ~array:c.Candidate.array
              ~source_box
              ~drain:(c.Candidate.direction = Access.Write)
              ~owner:(c.Candidate.stmt, c.Candidate.access_index)
          then []
          else iter :: free_prefix rest
      in
      free_prefix (refresh_outward [] loops))

let check_plan (m : Mapping.t) (plan : Prefetch.plan) =
  let bt = plan.Prefetch.bt in
  let loc ?iter () =
    Diagnostic.location ~array:bt.Mapping.bt_candidate.Candidate.array
      ~stmt:bt.Mapping.bt_candidate.Candidate.stmt ~bt:bt.Mapping.bt_id
      ?iter ()
  in
  let eligible =
    Hierarchy.has_dma m.Mapping.hierarchy
    && bt.Mapping.src_layer = Hierarchy.main_memory_level m.Mapping.hierarchy
    && bt.Mapping.issues > 0
  in
  let eligibility =
    if eligible then []
    else
      [
        diag ~code:"MHLA104" ~loc:(loc ())
          "planned transfer is not DMA-eligible (dma=%b, src layer %d, %d \
           issues)"
          (Hierarchy.has_dma m.Mapping.hierarchy)
          bt.Mapping.src_layer bt.Mapping.issues;
      ]
  in
  let freedom = freedom_of_plan m plan in
  let rec past_prefix granted free =
    match (granted, free) with
    | [], _ -> None
    | g :: granted', f :: free' when g = f -> past_prefix granted' free'
    | g :: _, _ -> Some g
  in
  let dependency =
    match past_prefix plan.Prefetch.extended freedom with
    | None -> []
    | Some iter ->
      [
        diag ~code:"MHLA101" ~loc:(loc ~iter ())
          "extension across loop %s crosses a data dependency (recomputed \
           freedom: [%s])"
          iter
          (String.concat ", " freedom);
      ]
  in
  let distance = List.length plan.Prefetch.extended in
  let buffers =
    if plan.Prefetch.extra_buffers < distance then
      [
        diag ~code:"MHLA102" ~loc:(loc ())
          "prefetch distance %d exceeds the %d provisioned extra buffers: \
           the incoming window overwrites a buffer still being read"
          distance plan.Prefetch.extra_buffers;
      ]
    else []
  in
  let issue_time = Cost.bt_cycles_per_issue m bt in
  let hiding =
    if plan.Prefetch.hidden_cycles > issue_time then
      [
        diag ~code:"MHLA103" ~loc:(loc ())
          "plan claims %d hidden cycles per issue but one issue takes %d"
          plan.Prefetch.hidden_cycles issue_time;
      ]
    else []
  in
  eligibility @ dependency @ buffers @ hiding

let run (s : Pass.subject) =
  match (s.Pass.mapping, s.Pass.schedule) with
  | Some m, Some schedule ->
    List.concat_map (check_plan m) schedule.Prefetch.plans
  | _ -> []

let pass =
  {
    Pass.name;
    codes = [ "MHLA101"; "MHLA102"; "MHLA103"; "MHLA104" ];
    run;
  }
