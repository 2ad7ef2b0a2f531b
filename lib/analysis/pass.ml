type subject = {
  program : Mhla_ir.Program.t;
  mapping : Mhla_core.Mapping.t option;
  schedule : Mhla_core.Prefetch.schedule option;
  policy : Mhla_lifetime.Occupancy.policy;
  analysis : Fixpoint.solution Lazy.t;
}

let subject ?mapping ?schedule ?(policy = Mhla_lifetime.Occupancy.In_place)
    program =
  {
    program;
    mapping;
    schedule;
    policy;
    analysis = lazy (Fixpoint.analyze program);
  }

let of_mapping ?schedule ?policy (m : Mhla_core.Mapping.t) =
  subject ~mapping:m ?schedule ?policy m.Mhla_core.Mapping.program

let solution s = Lazy.force s.analysis

type t = {
  name : string;
  description : string;
  codes : string list;
  run : subject -> Diagnostic.t list;
}
