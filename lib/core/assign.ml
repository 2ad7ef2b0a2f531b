module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Hierarchy = Mhla_arch.Hierarchy
module Telemetry = Mhla_obs.Telemetry

type config = {
  objective : Cost.objective;
  transfer_mode : Candidate.transfer_mode;
  policy : Mhla_lifetime.Occupancy.policy;
  allow_array_promotion : bool;
  max_chain_length : int;
  cc_filter : (Analysis.info -> Candidate.t -> bool) option;
}

let default_config =
  {
    objective = Cost.Energy_delay;
    transfer_mode = Candidate.Delta;
    policy = Mhla_lifetime.Occupancy.In_place;
    allow_array_promotion = true;
    max_chain_length = 2;
    cc_filter = None;
  }

type step = { description : string; gain : float; objective_after : float }

type result = {
  mapping : Mapping.t;
  breakdown : Cost.breakdown;
  steps : step list;
  evaluations : int;
  full_evaluations : int;
  cache_hits : int;
  cache_misses : int;
}

let result ?(engine_stats = None) ~full_evaluations mapping breakdown steps
    evaluations =
  let cache_hits, cache_misses =
    match engine_stats with
    | None -> (0, 0)
    | Some (s : Engine.stats) ->
      (s.Engine.contribs_reused, s.Engine.contribs_recomputed)
  in
  {
    mapping;
    breakdown;
    steps;
    evaluations;
    full_evaluations;
    cache_hits;
    cache_misses;
  }

(* Copy chains: pick a strictly-decreasing-level subsequence of the
   useful candidates and a strictly-increasing run of on-chip layers.
   The innermost link (first) serves the accesses. *)
let chains config (m : Mapping.t) (info : Analysis.info) =
  let on_chip = Hierarchy.on_chip_levels m.Mapping.hierarchy in
  let candidates = Analysis.useful_candidates info in
  (* The CC-selection policy hook: a filter only narrows the chain
     space ([Direct] always survives in [alternatives]), so any filter
     is safe — at worst the search degenerates to the out-of-the-box
     mapping. [None] (the default) keeps every useful candidate and is
     bit-identical to the pre-policy behaviour. *)
  let candidates =
    match config.cc_filter with
    | None -> candidates
    | Some keep -> List.filter (keep info) candidates
  in
  let depth_cap = min config.max_chain_length (List.length on_chip) in
  (* Build chains inner-to-outer: each extension picks a candidate of
     strictly lower level and a strictly higher layer. *)
  let rec extend chain level_floor layer_floor length acc =
    let acc = if chain = [] then acc else List.rev chain :: acc in
    if length >= depth_cap then acc
    else
      List.fold_left
        (fun acc (c : Candidate.t) ->
          if chain <> [] && c.Candidate.level >= level_floor then acc
          else
            List.fold_left
              (fun acc layer ->
                if layer < layer_floor then acc
                else
                  extend
                    ({ Mapping.candidate = c; layer } :: chain)
                    c.Candidate.level (layer + 1) (length + 1) acc)
              acc on_chip)
        acc candidates
  in
  (* [extend] accumulates the reversed prefixes; rebuild order so the
     innermost (deepest level) link is first, as Mapping expects. *)
  let raw = extend [] max_int 0 0 [] in
  let orient links =
    List.sort
      (fun (a : Mapping.chain_link) b ->
        compare b.Mapping.candidate.Candidate.level
          a.Mapping.candidate.Candidate.level)
      links
  in
  List.rev_map (fun links -> Mapping.Chain (orient links)) raw

let alternatives config m info = Mapping.Direct :: chains config m info

type move = Engine.move =
  | Set_placement of Analysis.access_ref * Mapping.placement
  | Set_array of string * int option

let describe_move = function
  | Set_placement (r, Mapping.Direct) ->
    Fmt.str "%a -> direct" Analysis.pp_access_ref r
  | Set_placement (r, Mapping.Chain links) ->
    let pp_link ppf (l : Mapping.chain_link) =
      Fmt.pf ppf "%s@@L%d" l.Mapping.candidate.Candidate.id l.Mapping.layer
    in
    Fmt.str "%a -> %a" Analysis.pp_access_ref r
      Fmt.(list ~sep:(any "<-") pp_link)
      links
  | Set_array (a, Some l) -> Printf.sprintf "array %s -> L%d" a l
  | Set_array (a, None) -> Printf.sprintf "array %s -> off-chip" a

let apply_move m = function
  | Set_placement (r, p) -> Mapping.with_placement m r p
  | Set_array (a, l) -> Mapping.with_array_layer m ~array:a ~layer:l

let placement_moves_of (m : Mapping.t) alts =
  List.concat_map
    (fun ((info : Analysis.info), placements) ->
      let current = Mapping.placement_of m info.Analysis.ref_ in
      List.filter_map
        (fun p ->
          if p = current then None
          else Some (Set_placement (info.Analysis.ref_, p)))
        placements)
    alts

(* The arrays the searches may move, each with every layer it can be
   moved to ([None]: off-chip), in move order. *)
let array_targets config (m : Mapping.t) =
  if not config.allow_array_promotion then []
  else
    let on_chip = Hierarchy.on_chip_levels m.Mapping.hierarchy in
    let targets = None :: List.map Option.some on_chip in
    List.map
      (fun array -> (array, targets))
      (Mhla_ir.Program.array_names m.Mapping.program)

let array_target (m : Mapping.t) array =
  let level = Mapping.array_layer m array in
  if level = Hierarchy.main_memory_level m.Mapping.hierarchy then None
  else Some level

let array_moves config (m : Mapping.t) =
  List.concat_map
    (fun (array, targets) ->
      let current = array_target m array in
      List.filter_map
        (fun target ->
          if target = current then None else Some (Set_array (array, target)))
        targets)
    (array_targets config m)

(* The placement alternatives of an access depend only on the config
   and the hierarchy's on-chip levels, never on the current placements
   — so the engine-driven searches compute them once and reuse the
   {e physically same} values every round, which turns the engine's
   compiled-alternative lookups into pointer compares. The from-scratch
   [moves] builds structurally identical lists, so both flavours probe
   the same moves in the same order. *)
let all_alternatives config (m : Mapping.t) =
  List.map
    (fun (info : Analysis.info) -> (info, alternatives config m info))
    m.Mapping.infos

let moves_with ~alts config m = placement_moves_of m alts @ array_moves config m

let moves config (m : Mapping.t) =
  moves_with ~alts:(all_alternatives config m) config m

(* The engine flavours' move table: every move [moves] can return,
   built once from the hoisted alternatives, in [moves] order. A move's
   owner is its access (infos order) or, past the accesses, its array;
   [skip] marks the moves that would leave their owner as it is — the
   ones [moves] filters out by structural equality with the current
   placement or layer. Committing a move re-marks its owner's moves
   only. *)
type table = {
  all : move array;
  owner : int array;
  first : int array;  (* per owner, its first move; then [Array.length all] *)
  skip : bool array;
}

let same_target a b =
  match (a, b) with
  | Set_placement (_, p), Set_placement (_, q) -> p = q
  | Set_array (_, l), Set_array (_, l') -> l = l'
  | Set_placement _, Set_array _ | Set_array _, Set_placement _ -> false

let move_table ~alts config (m : Mapping.t) =
  let owners =
    Array.of_list
      (List.map
         (fun ((info : Analysis.info), placements) ->
           Array.of_list
             (List.map
                (fun p -> Set_placement (info.Analysis.ref_, p))
                placements))
         alts
      @ List.map
          (fun (array, targets) ->
            Array.of_list (List.map (fun l -> Set_array (array, l)) targets))
          (array_targets config m))
  in
  let all = Array.concat (Array.to_list owners) in
  let owner =
    Array.concat
      (Array.to_list
         (Array.mapi (fun o ms -> Array.map (fun _ -> o) ms) owners))
  in
  let first = Array.make (Array.length owners + 1) (Array.length all) in
  for k = Array.length all - 1 downto 0 do
    first.(owner.(k)) <- k
  done;
  let current = function
    | Set_placement (r, _) -> Set_placement (r, Mapping.placement_of m r)
    | Set_array (a, _) -> Set_array (a, array_target m a)
  in
  let at = Array.map (fun ms -> current ms.(0)) owners in
  let skip = Array.mapi (fun k mv -> same_target mv at.(owner.(k))) all in
  { all; owner; first; skip }

(* After committing [all.(k)]: its owner now sits where that move put
   it. *)
let table_commit table k =
  let o = table.owner.(k) in
  for j = table.first.(o) to table.first.(o + 1) - 1 do
    table.skip.(j) <- same_target table.all.(j) table.all.(k)
  done

let feasible config m = Mapping.occupancy_ok ~policy:config.policy m

(* Strict-improvement threshold: relative 1e-9 guards against float
   noise causing non-termination. *)
let improves ~current ~candidate =
  candidate < current -. (1e-9 *. (Float.abs current +. 1.))

(* The two search drivers each exist in two flavours selected by
   [?oracle]: the engine flavour probes moves through the incremental
   {!Engine}, the oracle flavour re-runs [Cost.evaluate] from scratch.
   Both probe the same moves in the same order and compare values the
   same way, and [Engine.probe] is bit-identical to the full
   evaluation, so the two flavours take identical decisions and return
   identical mappings — the property the test suite pins down. *)

let no_checkpoint () = ()

let no_commit (_ : move) = ()

let greedy ?(config = default_config) ?(oracle = false)
    ?(first_improvement = false) ?(telemetry = Telemetry.noop) ?reuse
    ?(checkpoint = no_checkpoint) ?(on_commit = no_commit) program hierarchy =
  Telemetry.span telemetry ~cat:"assign" "assign.greedy"
    ~args:(fun () ->
      [ ("oracle", Telemetry.Bool oracle);
        ("first_improvement", Telemetry.Bool first_improvement);
        ( "objective",
          Telemetry.Str (Fmt.str "%a" Cost.pp_objective config.objective) )
      ])
  @@ fun () ->
  let evaluations = ref 0 in
  let start =
    Mapping.direct ~transfer_mode:config.transfer_mode ?reuse program
      hierarchy
  in
  let mk_step move ~current ~value =
    let step =
      {
        description = describe_move move;
        gain = current -. value;
        objective_after = value;
      }
    in
    Telemetry.instant telemetry ~cat:"assign" "greedy.step"
      ~args:(fun () ->
        [ ("move", Telemetry.Str step.description);
          ("gain", Telemetry.Float step.gain);
          ("objective_before", Telemetry.Float current);
          ("objective_after", Telemetry.Float value) ]);
    step
  in
  if oracle then begin
    let objective m =
      incr evaluations;
      Cost.scalar config.objective (Cost.evaluate m)
    in
    let rec descend m current steps =
      checkpoint ();
      let try_move best move =
        let next = apply_move m move in
        if not (feasible config next) then best
        else begin
          let value = objective next in
          match best with
          | Some (_, _, best_value) when value >= best_value -> best
          | Some _ | None ->
            if improves ~current ~candidate:value then Some (move, next, value)
            else best
        end
      in
      (* First-improving descent (a policy alternative to steepest):
         commit the first move that improves, in the deterministic
         [moves] order, instead of scanning them all. *)
      let select ms =
        if first_improvement then
          List.find_map
            (fun move ->
              let next = apply_move m move in
              if not (feasible config next) then None
              else begin
                let value = objective next in
                if improves ~current ~candidate:value then
                  Some (move, next, value)
                else None
              end)
            ms
        else List.fold_left try_move None ms
      in
      match select (moves config m) with
      | None -> (m, current, List.rev steps)
      | Some (move, next, value) ->
        on_commit move;
        descend next value (mk_step move ~current ~value :: steps)
    in
    let start_value = objective start in
    let mapping, _, steps = descend start start_value [] in
    result ~full_evaluations:!evaluations mapping (Cost.evaluate mapping)
      steps !evaluations
  end
  else begin
    let engine =
      Engine.create ~telemetry ~policy:config.policy
        ~objective:config.objective start
    in
    let table = move_table ~alts:(all_alternatives config start) config start in
    (* The best move of a round as its table index ([-1]: none improves)
       and its value, scanning in [moves] order. *)
    let select ~current =
      let best = ref (-1) in
      let best_value = ref 0. in
      let k = ref 0 in
      while !k < Array.length table.all do
        let j = !k in
        incr k;
        if not table.skip.(j) then begin
          let move = table.all.(j) in
          if Engine.feasible engine move then begin
            incr evaluations;
            let value = Engine.probe engine move in
            if
              improves ~current ~candidate:value
              && (!best < 0 || value < !best_value)
            then begin
              best := j;
              best_value := value;
              if first_improvement then k := Array.length table.all
            end
          end
        end
      done;
      (!best, !best_value)
    in
    let rec descend current steps =
      checkpoint ();
      match select ~current with
      | -1, _ -> (Engine.mapping engine, current, List.rev steps)
      | j, value ->
        let move = table.all.(j) in
        let step = mk_step move ~current ~value in
        Engine.commit engine move;
        table_commit table j;
        on_commit move;
        descend value (step :: steps)
    in
    incr evaluations (* parity with the oracle's initial evaluation *);
    let start_value = Engine.objective_value engine in
    let mapping, _, steps = descend start_value [] in
    result
      ~engine_stats:(Some (Engine.stats engine))
      ~full_evaluations:0 mapping (Engine.breakdown engine) steps
      !evaluations
  end

let simulated_annealing ?(config = default_config) ?(oracle = false)
    ?(telemetry = Telemetry.noop) ?reuse ?(checkpoint = no_checkpoint)
    ?(on_commit = no_commit) ?(seed = 42L) ?(iterations = 4000) program
    hierarchy =
  Telemetry.span telemetry ~cat:"assign" "assign.anneal"
    ~args:(fun () ->
      [ ("oracle", Telemetry.Bool oracle);
        ("seed", Telemetry.Str (Int64.to_string seed));
        ("iterations", Telemetry.Int iterations) ])
  @@ fun () ->
  let prng = Mhla_util.Prng.create ~seed in
  let evaluations = ref 0 in
  let full_evaluations = ref 0 in
  let start =
    Mapping.direct ~transfer_mode:config.transfer_mode ?reuse program
      hierarchy
  in
  let engine =
    if oracle then None
    else
      Some
        (Engine.create ~telemetry ~policy:config.policy
           ~objective:config.objective start)
  in
  let objective_full m =
    incr evaluations;
    incr full_evaluations;
    Cost.scalar config.objective (Cost.evaluate m)
  in
  let start_value =
    match engine with
    | None -> objective_full start
    | Some e ->
      incr evaluations;
      Engine.objective_value e
  in
  let current = ref start in
  let current_value = ref start_value in
  let best = ref start in
  let best_value = ref start_value in
  let steps = ref [] in
  (* Geometric cooling from 5% of the initial objective down to ~1e-4
     of it: early moves roam, late moves only refine. *)
  let t0 = 0.05 *. start_value in
  let t_end = 1e-4 *. start_value in
  let decay =
    if iterations <= 1 then 1.
    else (t_end /. t0) ** (1. /. float_of_int (iterations - 1))
  in
  let temperature = ref t0 in
  (* Both flavours share the loop and draw the same move: the oracle
     from the [moves] list (alternatives hoisted, as they are
     placement-independent), the engine from its move table, whose
     unskipped moves are that list in order. *)
  let alts = all_alternatives config start in
  let table = Option.map (fun _ -> move_table ~alts config start) engine in
  let pick () =
    match table with
    | None -> (
      match moves_with ~alts config !current with
      | [] -> None
      | all_moves -> Some (Mhla_util.Prng.pick prng all_moves, -1))
    | Some table -> (
      let n =
        Array.fold_left (fun n s -> if s then n else n + 1) 0 table.skip
      in
      if n = 0 then None
      else
        let rec nth k seen =
          if table.skip.(k) then nth (k + 1) seen
          else if seen = 0 then k
          else nth (k + 1) (seen - 1)
        in
        let k = nth 0 (Mhla_util.Prng.int prng ~bound:n) in
        Some (table.all.(k), k))
  in
  for iter = 1 to iterations do
    checkpoint ();
    (match pick () with
    | None -> ()
    | Some (move, k) ->
      (* The objective after [move] and how to advance onto it, when
         the move is feasible. The engine flavour never builds the
         next mapping for a rejected move. *)
      let probed =
        match engine with
        | None ->
          let next = apply_move !current move in
          if feasible config next then
            Some (objective_full next, fun () -> next)
          else None
        | Some e ->
          if Engine.feasible e move then begin
            incr evaluations;
            Some
              ( Engine.probe e move,
                fun () ->
                  Engine.commit e move;
                  Option.iter (fun table -> table_commit table k) table;
                  Engine.mapping e )
          end
          else None
      in
      match probed with
      | None -> ()
      | Some (value, advance) ->
        let delta = value -. !current_value in
        let accept =
          delta < 0.
          || Mhla_util.Prng.float prng < exp (-.delta /. !temperature)
        in
        Telemetry.instant telemetry ~cat:"assign"
          (if accept then "anneal.accept" else "anneal.reject")
          ~args:(fun () ->
            [ ("iteration", Telemetry.Int iter);
              ("temperature", Telemetry.Float !temperature);
              ("delta", Telemetry.Float delta);
              ("objective", Telemetry.Float value) ]);
        if accept then begin
          let next = advance () in
          on_commit move;
          current := next;
          current_value := value;
          if value < !best_value then begin
            let improvement = !best_value -. value in
            best := next;
            best_value := value;
            Telemetry.instant telemetry ~cat:"assign" "anneal.best"
              ~args:(fun () ->
                [ ("iteration", Telemetry.Int iter);
                  ("move", Telemetry.Str (describe_move move));
                  ("objective", Telemetry.Float value) ]);
            steps :=
              {
                description = describe_move move;
                gain = improvement;
                objective_after = value;
              }
              :: !steps
          end
        end);
    temperature := !temperature *. decay
  done;
  result
    ~engine_stats:(Option.map Engine.stats engine)
    ~full_evaluations:!full_evaluations !best (Cost.evaluate !best)
    (List.rev !steps) !evaluations

let exhaustive ?(config = default_config) ?reuse ~max_states program
    hierarchy =
  let start =
    Mapping.direct ~transfer_mode:config.transfer_mode ?reuse program
      hierarchy
  in
  let alts =
    List.map
      (fun (info : Analysis.info) ->
        (info.Analysis.ref_, alternatives config start info))
      start.Mapping.infos
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
        if feasible config m then begin
          incr evaluations;
          let value = Cost.scalar config.objective (Cost.evaluate m) in
          match !best with
          | Some (_, best_value) when best_value <= value -> ()
          | Some _ | None -> best := Some (m, value)
        end
      | (ref_, placements) :: rest ->
        List.iter
          (fun p -> assign (Mapping.with_placement m ref_ p) rest)
          placements
    in
    assign start alts;
    match !best with
    | None -> Error "exhaustive: no feasible mapping (capacity too small?)"
    | Some (mapping, _) ->
      Ok
        (result ~full_evaluations:!evaluations mapping
           (Cost.evaluate mapping) [] !evaluations)
  end
