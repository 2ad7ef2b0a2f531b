module Assign = Mhla_core.Assign
module Explore = Mhla_core.Explore
module Prefetch = Mhla_core.Prefetch

type t = {
  name : string;
  search : Explore.search;
  order : Prefetch.order;
  cc_top_k : int option;
}

let make ?(search = Explore.Greedy) ?(order = Prefetch.By_time_over_size)
    ?cc_top_k name =
  { name; search; order; cc_top_k }

let greedy = make "greedy"

let greedy_first = make ~search:Explore.First_improvement "greedy-first"

let anneal =
  make ~search:(Explore.Annealing { seed = 42L; iterations = 4000 }) "anneal"

let te_fifo = make ~order:Prefetch.Fifo "te-fifo"

let te_size = make ~order:Prefetch.By_size "te-size"

let lean = make ~cc_top_k:1 "lean"

let run ?(config = Assign.default_config) ?telemetry ?reuse ?checkpoint p
    program hierarchy =
  Explore.run
    ~config:{ config with Assign.cc_top_k = p.cc_top_k }
    ~order:p.order ~search:p.search ?telemetry ?reuse ?checkpoint program
    hierarchy
