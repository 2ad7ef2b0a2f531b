module Analysis = Mhla_reuse.Analysis
module Assign = Mhla_core.Assign
module Cost = Mhla_core.Cost
module Mapping = Mhla_core.Mapping
module Prng = Mhla_util.Prng

let result mapping steps evaluations =
  {
    Assign.mapping;
    breakdown = Cost.evaluate mapping;
    steps;
    evaluations;
    probes = evaluations;
    cache_hits = 0;
    cache_misses = 0;
    feasible_staged = 0;
  }

let start (config : Assign.config) ?reuse program hierarchy =
  Mapping.direct ~transfer_mode:config.Assign.transfer_mode
    ~policy:config.Assign.policy ?reuse program hierarchy

let step move ~before ~after =
  { Assign.move; gain = before -. after; objective_after = after }

(* The greedy's strict-improvement rule: a relative 1e-9 margin keeps
   float noise from cycling. *)
let improves ~current value =
  value < current -. (1e-9 *. (Float.abs current +. 1.))

let greedy ?(config = Assign.default_config) ?(first_improvement = false)
    ?reuse program hierarchy =
  let evaluations = ref 0 in
  let value m =
    incr evaluations;
    Cost.scalar config.Assign.objective (Cost.evaluate m)
  in
  (* The feasible moved-to mapping and its value. *)
  let probe m move =
    let next = Assign.apply_move m move in
    if Mapping.occupancy_ok next then Some (move, next, value next) else None
  in
  let rec descend m current steps =
    let improving = function
      | Some (_, _, v) as c when improves ~current v -> c
      | Some _ | None -> None
    in
    let chosen =
      if first_improvement then
        List.find_map
          (fun mv -> improving (probe m mv))
          (Assign.moves config m)
      else
        List.fold_left
          (fun best mv ->
            match (best, improving (probe m mv)) with
            | Some (_, _, b), Some (_, _, v) when v >= b -> best
            | _, None -> best
            | _, c -> c)
          None (Assign.moves config m)
    in
    match chosen with
    | None -> (m, List.rev steps)
    | Some (move, next, v) ->
      descend next v (step move ~before:current ~after:v :: steps)
  in
  let m0 = start config ?reuse program hierarchy in
  let mapping, steps = descend m0 (value m0) [] in
  result mapping steps !evaluations

let simulated_annealing ?(config = Assign.default_config) ?reuse
    ?(seed = 42L) ?(iterations = 4000) program hierarchy =
  let prng = Prng.create ~seed in
  let evaluations = ref 0 in
  let value m =
    incr evaluations;
    Cost.scalar config.Assign.objective (Cost.evaluate m)
  in
  let m0 = start config ?reuse program hierarchy in
  let v0 = value m0 in
  let current = ref m0 and current_value = ref v0 in
  let best = ref m0 and best_value = ref v0 in
  let steps = ref [] in
  (* Geometric cooling from 5% of the initial objective to 1e-4 of it. *)
  let t0 = 0.05 *. v0 in
  let t_end = 1e-4 *. v0 in
  let decay =
    if iterations <= 1 then 1.
    else (t_end /. t0) ** (1. /. float_of_int (iterations - 1))
  in
  let temperature = ref t0 in
  for _ = 1 to iterations do
    (match Assign.moves config !current with
    | [] -> ()
    | moves ->
      let move = Prng.pick prng moves in
      let next = Assign.apply_move !current move in
      if Mapping.occupancy_ok next then begin
        let v = value next in
        let delta = v -. !current_value in
        if delta < 0. || Prng.float prng < exp (-.delta /. !temperature)
        then begin
          current := next;
          current_value := v;
          if v < !best_value then begin
            steps := step move ~before:!best_value ~after:v :: !steps;
            best := next;
            best_value := v
          end
        end
      end);
    temperature := !temperature *. decay
  done;
  result !best (List.rev !steps) !evaluations

let exhaustive ?(config = Assign.default_config) ?reuse ~max_states program
    hierarchy =
  let m0 = start config ?reuse program hierarchy in
  let alts =
    List.map
      (fun (info : Analysis.info) ->
        (info.Analysis.ref_, Assign.alternatives config m0 info))
      m0.Mapping.infos
  in
  let states =
    List.fold_left (fun acc (_, ps) -> acc * List.length ps) 1 alts
  in
  if states > max_states then
    Error
      (Printf.sprintf "exhaustive: %d states exceed the budget of %d" states
         max_states)
  else begin
    let evaluations = ref 0 in
    let best = ref None in
    let rec assign m = function
      | [] ->
        if Mapping.occupancy_ok m then begin
          incr evaluations;
          let v = Cost.scalar config.Assign.objective (Cost.evaluate m) in
          match !best with
          | Some (_, b) when b <= v -> ()
          | Some _ | None -> best := Some (m, v)
        end
      | (ref_, placements) :: rest ->
        List.iter
          (fun p -> assign (Mapping.with_placement m ref_ p) rest)
          placements
    in
    assign m0 alts;
    match !best with
    | None -> Error "exhaustive: no feasible mapping (capacity too small?)"
    | Some (mapping, _) -> Ok (result mapping [] !evaluations)
  end
