module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Assign = Mhla_core.Assign
module Explore = Mhla_core.Explore
module Prefetch = Mhla_core.Prefetch

type cc_filter = Keep_all | Top_k of int

type t = {
  name : string;
  search : Explore.search;
  order : Prefetch.order;
  cc_filter : cc_filter;
}

let make ?(search = Explore.Greedy) ?(order = Prefetch.By_time_over_size)
    ?(cc_filter = Keep_all) name =
  { name; search; order; cc_filter }

let greedy = make "greedy"

let greedy_first = make ~search:Explore.First_improvement "greedy-first"

let anneal =
  make ~search:(Explore.Annealing { seed = 42L; iterations = 4000 }) "anneal"

let te_fifo = make ~order:Prefetch.Fifo "te-fifo"

let te_size = make ~order:Prefetch.By_size "te-size"

let lean = make ~cc_filter:(Top_k 1) "lean"

(* Per-access membership in the top-k by reuse factor. The sort is
   stable over [useful_candidates]'s deterministic order (ties keep
   source order), so the kept set is a function of the info alone —
   no dependence on evaluation order. *)
let top_k_keep ~transfer_mode k (info : Analysis.info) (c : Candidate.t) =
  let ranked =
    List.stable_sort
      (fun a b ->
        Float.compare
          (Candidate.reuse_factor transfer_mode b)
          (Candidate.reuse_factor transfer_mode a))
      (Analysis.useful_candidates info)
  in
  let rec mem n = function
    | [] -> false
    | _ when n = 0 -> false
    | kept :: tl -> String.equal kept.Candidate.id c.Candidate.id || mem (n - 1) tl
  in
  mem k ranked

let install ~config p =
  let filter =
    match p.cc_filter with
    | Keep_all -> None
    | Top_k k ->
        Some (top_k_keep ~transfer_mode:config.Assign.transfer_mode k)
  in
  { config with Assign.cc_filter = filter }

let run ?(config = Assign.default_config) ?telemetry ?reuse ?checkpoint p
    program hierarchy =
  Explore.run
    ~config:(install ~config p)
    ~order:p.order ~search:p.search ?telemetry ?reuse ?checkpoint program
    hierarchy
