module Affine = Mhla_ir.Affine
module Schedule = Mhla_lifetime.Schedule

type subject = {
  program : Mhla_ir.Program.t;
  mapping : Mhla_core.Mapping.t option;
  schedule : Mhla_core.Prefetch.schedule option;
  timeline : Schedule.t Lazy.t;
}

(* A mapping carries the timeline of its own program (built once by
   [Mapping.precompute]); the subject shares it rather than walking the
   loop tree again. *)
let subject ?mapping ?schedule program =
  {
    program;
    mapping;
    schedule;
    timeline =
      (match mapping with
      | Some m -> Lazy.from_val m.Mhla_core.Mapping.schedule
      | None -> lazy (Schedule.of_program program));
  }

let of_mapping ?schedule (m : Mhla_core.Mapping.t) =
  subject ~mapping:m ?schedule m.Mhla_core.Mapping.program

let timeline s = Lazy.force s.timeline

let access_box (loops : (string * int) list) (a : Mhla_ir.Access.t) =
  let trip iter =
    match List.assoc_opt iter loops with Some t -> t | None -> 1
  in
  List.map
    (fun e -> (Affine.min_value e ~trip, Affine.max_value e ~trip))
    a.Mhla_ir.Access.index

let boxes_intersect b1 b2 =
  List.length b1 = List.length b2
  && List.for_all2
       (fun (lo1, hi1) (lo2, hi2) -> lo1 <= hi2 && lo2 <= hi1)
       b1 b2

type t = {
  name : string;
  codes : string list;
  run : subject -> Diagnostic.t list;
}
