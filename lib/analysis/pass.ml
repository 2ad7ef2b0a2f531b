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

type t = {
  name : string;
  codes : string list;
  run : subject -> Diagnostic.t list;
}
