module Access = Mhla_ir.Access
module Cost = Mhla_core.Cost
module Mapping = Mhla_core.Mapping
module Prefetch = Mhla_core.Prefetch
module Program = Mhla_ir.Program
module Stmt = Mhla_ir.Stmt

let name = "determinism"

let info ~code ?loc ?trail fmt =
  Diagnostic.makef ~code ~severity:Diagnostic.Info ~pass:name ?loc ?trail fmt

(* The greedy TE pass breaks ties by input position (stable sort). Two
   eligible transfers with equal recomputed keys therefore owe their
   relative priority to enumeration order, not to the objective — a
   schedule that silently depends on how the mapping happened to list
   its transfers. Recomputed from the mapping, not read off the plan. *)
let recomputed_key (m : Mapping.t) (plan : Prefetch.plan) =
  let bt = plan.Prefetch.bt in
  if bt.Mapping.bytes_per_issue = 0 then 0.
  else
    float_of_int (Cost.bt_cycles_per_issue m bt)
    /. float_of_int bt.Mapping.bytes_per_issue

let check_ties (m : Mapping.t) (schedule : Prefetch.schedule) =
  let keyed =
    List.map (fun p -> (p, recomputed_key m p)) schedule.Prefetch.plans
  in
  let rec adjacent = function
    | (p1, k1) :: (((p2, k2) :: _) as rest) ->
      let b1 = p1.Prefetch.bt and b2 = p2.Prefetch.bt in
      let here =
        (* Fetches and drains never compete: the partition is part of
           the defined order, not a tie. *)
        if b1.Mapping.is_writeback = b2.Mapping.is_writeback && k1 = k2 then
          [
            info ~code:"MHLA401"
              ~loc:(Diagnostic.location ~bt:b1.Mapping.bt_id ())
              ~trail:
                [
                  Fmt.str "recomputed time/size key of %s: %g"
                    b1.Mapping.bt_id k1;
                  Fmt.str "recomputed key of %s: %g" b2.Mapping.bt_id k2;
                ]
              "transfers %s and %s tie on the scheduling key (%g): their \
               relative DMA priority follows enumeration order, not the \
               objective"
              b1.Mapping.bt_id b2.Mapping.bt_id k1;
          ]
        else []
      in
      here @ adjacent rest
    | [ _ ] | [] -> []
  in
  adjacent keyed

(* A statement that reads and writes overlapping regions of one array
   carries a recurrence: its iterations are ordered, so any reordering
   transformation (and any tool assuming iteration independence) must
   be told. Boxes are the closed-form subscript ranges over the
   statement's loops, one per subscript. *)
let pp_box ppf box =
  Fmt.(list ~sep:(any " x ") (fun ppf (lo, hi) -> pf ppf "[%d, %d]" lo hi))
    ppf box

let check_recurrences (program : Program.t) =
  Program.fold_stmts program ~init:[] ~f:(fun acc ctx ->
      let stmt = ctx.Program.stmt.Stmt.name in
      let box = Access.box ctx.Program.loops in
      let reads, writes =
        List.partition
          (fun (a : Access.t) -> a.Access.direction = Access.Read)
          ctx.Program.stmt.Stmt.accesses
      in
      let arrays =
        List.sort_uniq String.compare
          (List.map (fun (a : Access.t) -> a.Access.array) writes)
      in
      let here =
        List.filter_map
          (fun array ->
            let of_array =
              List.filter (fun (a : Access.t) -> a.Access.array = array)
            in
            let pair =
              List.find_map
                (fun w ->
                  List.find_map
                    (fun r ->
                      let wb = box w and rb = box r in
                      if Access.boxes_intersect wb rb then Some (rb, wb)
                      else None)
                    (of_array reads))
                (of_array writes)
            in
            match pair with
            | None -> None
            | Some (read_box, write_box) ->
              Some
                (info ~code:"MHLA402"
                   ~loc:(Diagnostic.location ~array ~stmt ())
                   ~trail:
                     [
                       Fmt.str "read sweeps %a" pp_box read_box;
                       Fmt.str "write sweeps %a" pp_box write_box;
                     ]
                   "statement reads and writes overlapping regions of %s — \
                    a recurrence; its iterations are not independent"
                   array))
          arrays
      in
      acc @ here)

let run (s : Pass.subject) =
  let recurrences = check_recurrences s.Pass.program in
  match (s.Pass.mapping, s.Pass.schedule) with
  | Some m, Some schedule -> recurrences @ check_ties m schedule
  | _ -> recurrences

let pass =
  {
    Pass.name;
    codes = [ "MHLA401"; "MHLA402" ];
    run;
  }
