module Error = Mhla_util.Error
module Explore = Mhla_core.Explore

let search_names = [ "greedy"; "first-improvement"; "anneal" ]

let search_of_name ?(context = "Registry.search_of_name") ?(seed = 42L)
    ?(iterations = 4000) name =
  match name with
  | "greedy" -> Explore.Greedy
  | "first-improvement" | "first" | "greedy-first" ->
      Explore.First_improvement
  | "anneal" | "annealing" -> Explore.Annealing { seed; iterations }
  | s ->
      Error.invalidf ~context
        ~hint:
          (Printf.sprintf "known searches: %s"
             (String.concat ", " search_names))
        "unknown search %S" s

let search_name = function
  | Explore.Greedy -> "greedy"
  | Explore.First_improvement -> "first-improvement"
  | Explore.Annealing _ -> "anneal"

let builtins =
  [ Policy.greedy; Policy.greedy_first; Policy.anneal; Policy.lean ]

let names = List.map (fun (p : Policy.t) -> p.Policy.name) builtins

let find ?(context = "Registry.find") name =
  match
    List.find_opt (fun (p : Policy.t) -> String.equal p.Policy.name name)
      builtins
  with
  | Some p -> p
  | None ->
      Error.invalidf ~context
        ~hint:
          (Printf.sprintf "known policies: %s" (String.concat ", " names))
        "unknown policy %S" name

let default_portfolio = [ Policy.greedy; Policy.greedy_first; Policy.anneal ]

let default_portfolio_names =
  List.map (fun (p : Policy.t) -> p.Policy.name) default_portfolio
