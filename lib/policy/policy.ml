module Assign = Mhla_core.Assign
module Explore = Mhla_core.Explore

type t = { name : string; search : Explore.search; cc_top_k : int option }

let make ?(search = Explore.Greedy) ?cc_top_k name = { name; search; cc_top_k }

let greedy = make "greedy"

let greedy_first = make ~search:Explore.First_improvement "greedy-first"

let anneal =
  make ~search:(Explore.Annealing { seed = 42L; iterations = 4000 }) "anneal"

let lean = make ~cc_top_k:1 "lean"

let run ?(config = Assign.default_config) ?telemetry ?reuse ?checkpoint p
    program hierarchy =
  Explore.run
    ~config:{ config with Assign.cc_top_k = p.cc_top_k }
    ~search:p.search ?telemetry ?reuse ?checkpoint program hierarchy
