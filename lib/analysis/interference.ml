module Candidate = Mhla_reuse.Candidate
module Interval = Mhla_util.Interval
module Mapping = Mhla_core.Mapping
module Prefetch = Mhla_core.Prefetch
module Schedule = Mhla_lifetime.Schedule

let name = "interference"

(* A granted extension keeps one extra buffer alive for the whole span
   of the granted loop; the transfer it extends refreshes inside that
   loop, so every granted span must enclose the buffer's own lifetime.
   A span that does not means the plan's double buffer dies while the
   data it guards is still live — lifetimes interfere. Recomputed
   entirely from the program-order timeline, never from the plan's own
   claims. *)
let check_containment timeline (plan : Prefetch.plan) =
  let bt = plan.Prefetch.bt in
  let c = bt.Mapping.bt_candidate in
  let lifetime = Schedule.candidate_interval timeline c in
  List.filter_map
    (fun iter ->
      match Schedule.loop_interval timeline iter with
      | exception Not_found ->
        (* A granted loop the program does not know is the dma-race
           pass's finding (freedom mismatch), not an interference. *)
        None
      | span ->
        if
          span.Interval.lo <= lifetime.Interval.lo
          && lifetime.Interval.hi <= span.Interval.hi
        then None
        else
          Some
            (Diagnostic.makef ~code:"MHLA203" ~severity:Diagnostic.Error
               ~pass:name
               ~loc:
                 (Diagnostic.location ~array:c.Candidate.array
                    ~bt:bt.Mapping.bt_id ~iter ())
               ~trail:
                 [
                   Fmt.str "granted loop %s spans %a on the timeline" iter
                     Interval.pp span;
                   Fmt.str "the extended transfer's buffer lives over %a"
                     Interval.pp lifetime;
                 ]
               "granted loop %s (span %a) does not enclose the extended \
                buffer's lifetime %a — the TE double buffer dies while its \
                data is still live"
               iter Interval.pp span Interval.pp lifetime))
    plan.Prefetch.extended

(* DMA priorities are the greedy pass's positions: the schedule's plans,
   in order, must carry exactly 0, 1, ..., n-1. Anything else means two
   transfers contend for the engine with no defined winner. *)
let check_priorities (schedule : Prefetch.schedule) =
  List.concat
    (List.mapi
       (fun expected (plan : Prefetch.plan) ->
         if plan.Prefetch.dma_priority = expected then []
         else
           [
             Diagnostic.makef ~code:"MHLA204" ~severity:Diagnostic.Error
               ~pass:name
               ~loc:
                 (Diagnostic.location ~bt:plan.Prefetch.bt.Mapping.bt_id ())
               "plan at schedule position %d carries DMA priority %d — \
                priorities must be the contiguous sequence 0..%d in \
                schedule order"
               expected plan.Prefetch.dma_priority
               (List.length schedule.Prefetch.plans - 1);
           ])
       schedule.Prefetch.plans)

let run (s : Pass.subject) =
  match s.Pass.schedule with
  | None -> []
  | Some schedule ->
    let timeline = Pass.timeline s in
    List.concat_map (check_containment timeline) schedule.Prefetch.plans
    @ check_priorities schedule

let pass =
  {
    Pass.name;
    codes = [ "MHLA203"; "MHLA204" ];
    run;
  }
