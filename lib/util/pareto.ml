module Nd = struct
  type 'a point = { objectives : float array; payload : 'a }

  let point ~objectives payload =
    if Array.length objectives = 0 then
      Error.invalidf ~context:"Pareto.Nd.point"
        "a point needs at least one objective";
    Array.iter
      (fun v ->
        if Float.is_nan v then
          Error.invalidf ~context:"Pareto.Nd.point"
            "NaN objective (objectives must be comparable)")
      objectives;
    { objectives = Array.copy objectives; payload }

  let objectives p = Array.copy p.objectives

  let payload p = p.payload

  let dim p = Array.length p.objectives

  let check_dim ~context p q =
    if Array.length p.objectives <> Array.length q.objectives then
      Error.invalidf ~context "dimension mismatch (%d vs %d objectives)"
        (Array.length p.objectives)
        (Array.length q.objectives)

  let dominates p q =
    check_dim ~context:"Pareto.Nd.dominates" p q;
    let n = Array.length p.objectives in
    let rec go i strict =
      if i = n then strict
      else
        let a = p.objectives.(i) and b = q.objectives.(i) in
        if a > b then false else go (i + 1) (strict || a < b)
    in
    go 0 false

  let lex_compare p q =
    check_dim ~context:"Pareto.Nd.lex_compare" p q;
    let n = Array.length p.objectives in
    let rec go i =
      if i = n then 0
      else
        let c = Float.compare p.objectives.(i) q.objectives.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

  let equal_objectives p q = lex_compare p q = 0

  (* Invariant: mutually non-dominated, sorted by [lex_compare] (which
     is total on the frontier: two points with equal vectors never
     coexist — the first writer won). *)
  type 'a t = 'a point list

  let empty = []

  let size = List.length

  let is_empty t = t = []

  let add p t =
    if
      List.exists (fun q -> dominates q p || equal_objectives q p) t
    then t
    else
      let rec insert = function
        | [] -> [ p ]
        | q :: rest ->
          if dominates p q then insert rest
          else if lex_compare p q < 0 then
            p :: List.filter (fun r -> not (dominates p r)) (q :: rest)
          else q :: insert rest
      in
      insert t

  let of_list points = List.fold_left (fun t p -> add p t) empty points

  let to_list t = t

  let mem_dominated p t = List.exists (fun q -> dominates q p) t

  let pp ~payload ppf t =
    let pp_point ppf p =
      Fmt.pf ppf "(%a) %a"
        Fmt.(array ~sep:comma (fmt "%g"))
        p.objectives payload p.payload
    in
    Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_point) t
end
