module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Hierarchy = Mhla_arch.Hierarchy
module Telemetry = Mhla_obs.Telemetry

type config = {
  objective : Cost.objective;
  transfer_mode : Candidate.transfer_mode;
  policy : Mhla_lifetime.Occupancy.policy;
  allow_array_promotion : bool;
  cc_top_k : int option;
}

let default_config =
  {
    objective = Cost.Energy_delay;
    transfer_mode = Candidate.Delta;
    policy = Mhla_lifetime.Occupancy.In_place;
    allow_array_promotion = true;
    cc_top_k = None;
  }

type step = { move : Engine.move; gain : float; objective_after : float }

type result = {
  mapping : Mapping.t;
  breakdown : Cost.breakdown;
  steps : step list;
  evaluations : int;
  probes : int;
  cache_hits : int;
  cache_misses : int;
  feasible_staged : int;
}

let result engine mapping breakdown steps evaluations =
  let s = Engine.stats engine in
  {
    mapping;
    breakdown;
    steps;
    evaluations;
    probes = s.Engine.probes;
    cache_hits = s.Engine.contribs_reused;
    cache_misses = s.Engine.contribs_recomputed;
    feasible_staged = s.Engine.feasible_staged;
  }

(* The longest copy chain considered: a copy of a copy. The
   hierarchy's on-chip depth also caps it. *)
let chain_depth_cap = 2

(* Copy chains: pick a strictly-decreasing-level subsequence of the
   useful candidates and a strictly-increasing run of on-chip layers.
   The innermost link (first) serves the accesses. *)
let chains config (m : Mapping.t) (info : Analysis.info) =
  let on_chip = Hierarchy.on_chip_levels m.Mapping.hierarchy in
  let candidates = Analysis.useful_candidates info in
  (* CC selection only narrows the chain space ([Direct] always
     survives in [alternatives]), so at worst the search degenerates
     to the out-of-the-box mapping. The ranking is a stable sort, so
     ties keep source order and the kept set, listed in source order,
     is a function of the info alone. *)
  let candidates =
    match config.cc_top_k with
    | None -> candidates
    | Some k ->
      let reuse (c : Candidate.t) =
        Candidate.reuse_factor config.transfer_mode c
      in
      let ranked =
        List.stable_sort (fun a b -> Float.compare (reuse b) (reuse a))
          candidates
      in
      let kept = List.filteri (fun i _ -> i < k) ranked in
      List.filter (fun c -> List.memq c kept) candidates
  in
  let depth_cap = min chain_depth_cap (List.length on_chip) in
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
   — so the searches compute them once per solve state and resolve
   each move to its engine handle once. [moves] builds structurally
   identical lists, so the move table holds the moves it returns, in
   its order. *)
let all_alternatives config (m : Mapping.t) =
  List.map
    (fun (info : Analysis.info) -> (info, alternatives config m info))
    m.Mapping.infos

let moves config (m : Mapping.t) =
  placement_moves_of m (all_alternatives config m) @ array_moves config m

(* The searches' move table: every move [moves] can return,
   built once from the hoisted alternatives, in [moves] order. A move's
   owner is its access (infos order) or, past the accesses, its array;
   [skip] marks the moves that would leave their owner as it is — the
   ones [moves] filters out by structural equality with the current
   placement or layer — and [live] counts the others, per owner and in
   [n_live] in all, so the annealing draws its move without a scan.
   Committing a move re-marks its owner's moves only. [array_of] is
   each move's array (its index in [Program.array_names]): the
   access's array, or the moved array. [handles] holds each move
   resolved against the solver's engine ({!Engine.resolve}), which
   the searches check, probe and commit through.

   The rest is the delta cache both searches skip probes with (see
   [fold_error]): the exact totals of the engine's position ([cycles],
   [terms], [energy.(0)]) and the longest probe fold so far, then, once
   [table_cache] has allocated them, per move the cycle and energy
   deltas of its last exact probe and an absolute bound on the energy
   delta's float error ([infinity]: no valid delta), the move's lower
   bound at the position, and scratch for the greedy's pending moves.
   The greedy turns the cache on ([cached]) when a solve's first round
   finds an improving move, so a solve that commits nothing caches
   nothing; the per-move arrays are allocated the first time, and
   kept across the solves of one {!state}. The annealing also
   allocates, with [table_verdicts], a feasibility verdict per move and
   the position it was taken at (see [table_feasible]). *)
type table = {
  all : move array;
  handles : Engine.handle array;
  owner : int array;
  first : int array;  (* per owner, its first move; then [Array.length all] *)
  skip : bool array;
  live : int array;
  mutable n_live : int;
  array_of : int array;
  mutable cycles : int;
  mutable terms : int;
  energy : float array;
  mutable t_max : int;
  mutable cached : bool;
  mutable dc : int array;
  mutable de : float array;
  mutable err : float array;
  mutable low : float array;
  mutable pending : int array;
  mutable position : int;  (* bumped by every commit *)
  mutable checked : int array;  (* the position of each move's verdict *)
  mutable fits : bool array;
}

let same_target a b =
  match (a, b) with
  | Set_placement (_, p), Set_placement (_, q) -> p = q
  | Set_array (_, l), Set_array (_, l') -> l = l'
  | Set_placement _, Set_array _ | Set_array _, Set_placement _ -> false

let move_table ~alts config engine (m : Mapping.t) =
  let targets = array_targets config m in
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
          targets)
  in
  let owner_array =
    let names = Mhla_ir.Program.array_names m.Mapping.program in
    let rec index k a = function
      | [] -> invalid_arg ("Assign.move_table: unknown array " ^ a)
      | name :: rest -> if name = a then k else index (k + 1) a rest
    in
    Array.of_list
      (List.map
         (fun ((info : Analysis.info), _) -> index 0 info.Analysis.array names)
         alts
      @ List.map (fun (array, _) -> index 0 array names) targets)
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
  {
    all;
    handles = Array.map (Engine.resolve engine) all;
    owner;
    first;
    skip = Array.make (Array.length all) false;
    live = Array.make (Array.length owners) 0;
    n_live = 0;
    array_of = Array.map (fun o -> owner_array.(o)) owner;
    cycles = 0;
    terms = 0;
    energy = [| 0. |];
    t_max = 0;
    cached = false;
    dc = [||];
    de = [||];
    err = [||];
    low = [||];
    pending = [||];
    position = 0;
    checked = [||];
    fits = [||];
  }

(* Place the table on start mapping [m] as if just built for it: the
   moves that leave their owner as [m] has it are skipped, the delta
   cache is off and empty, and bumping [position] makes every
   feasibility verdict stale. *)
let table_seat table (m : Mapping.t) =
  let current = function
    | Set_placement (r, _) -> Set_placement (r, Mapping.placement_of m r)
    | Set_array (a, _) -> Set_array (a, array_target m a)
  in
  Array.fill table.live 0 (Array.length table.live) 0;
  let o = ref (-1) and at = ref (Set_array ("", None)) in
  Array.iteri
    (fun k mv ->
      if table.owner.(k) <> !o then begin
        o := table.owner.(k);
        at := current mv
      end;
      let skip = same_target mv !at in
      table.skip.(k) <- skip;
      if not skip then table.live.(!o) <- table.live.(!o) + 1)
    table.all;
  table.n_live <- Array.fold_left ( + ) 0 table.live;
  table.cycles <- 0;
  table.terms <- 0;
  table.energy.(0) <- 0.;
  table.t_max <- 0;
  table.cached <- false;
  table.position <- table.position + 1

(* The [r]-th unskipped move, [0 <= r < n_live]. *)
let table_nth table r =
  let r = ref r and o = ref 0 in
  while !r >= table.live.(!o) do
    r := !r - table.live.(!o);
    incr o
  done;
  let k = ref table.first.(!o) in
  while table.skip.(!k) || !r > 0 do
    if not table.skip.(!k) then decr r;
    incr k
  done;
  !k

(* Strict-improvement threshold: relative 1e-9 guards against float
   noise causing non-termination. A candidate improves when its value
   lies below [threshold current]. *)
let threshold current = current -. (1e-9 *. (Float.abs current +. 1.))

(* --- certified skips, shared by the greedy and the annealing -------------

   Why a cached delta stays valid. A move's cost terms read only its
   own access entry (or, for [Set_array], its array's accesses) and its
   array's home level: [Cost.access_contribution] and
   [Cost.bt_contribution] read nothing of the mapping but the
   hierarchy, a placement's chain transfers depend only on its links
   and the home, the whole-array fill/drain streams only on the array
   and its level, and transfers dedupe only within one array, because
   every [Candidate.share_key] starts with the array's name. So the
   multiset of terms a move adds and removes — and with it the exact
   (real-number) cycle and energy deltas, and the change in the number
   of terms folded — is the same at every position that differs from
   the probed one only in other arrays' placements and homes. A commit
   on array [A] therefore invalidates only [A]'s moves, whether the
   greedy's descent or an annealing step (uphill or not) made it.

   Cycles are ints: a cached [dc] is exact. Energy is a float fold, so
   the delta carries rounding error, bounded from the fold length:

   - A fold of [T] contributions (the engine's [last_terms]) sums
     three running totals of at most [T] non-negative terms each and
     adds the three; recursive summation of non-negative terms errs by
     at most [(n - 1) u] times the exact sum (u = 2^-53, to first
     order), so the fold's total [E] is within [(T + 2) u E] of the
     exact sum of its terms. [fold_error] doubles that — [epsilon_float]
     is [2u] — which covers the second-order terms and the rounding of
     the bound's own arithmetic for any [T] below 2^50.
   - An exact probe at a position with totals [(C, E, T)] that returns
     [(C', E', T')] stores [dc = C' - C], [de = E' -. E] and
     [err = fold_error T' E' +. fold_error T E +. eps |de|], a bound on
     [|de - (exact delta)|] (the last term covers the subtraction)
     ([table_record]).
   - At a later position [(C, E, T)] the move's estimate is
     [e = E +. de] against an exact new total within
     [err +. fold_error T E +. eps |e|] of [e]; its fold, which a probe
     would return, is within [fold_error T' E'] of that exact total,
     where [T' <= T + t_max] ([t_max]: the longest probe fold so far)
     and [E' <= |e| + that bound].
   - The value adds one multiplication by the exact cycle count
     [C + dc] for [Energy_delay] (each of the two rounded products
     errs by at most [u] of itself), none for [Energy], and is exact
     for [Cycles].

   [table_lower] subtracts from the estimate the propagated energy
   bound (for [Energy_delay], twice it times the cycle count) plus
   [2 eps] of the estimate, which covers the products' rounding and the
   subtraction's; for [Cycles] the estimate is the exact value. So the
   exact probe value is never below [low]. The greedy skips a move
   whose [low] reaches the round's threshold (it cannot improve) or
   exceeds an exact value already found (it cannot win the round); the
   annealing rejects a move unprobed when [low] already makes the
   Boltzmann test fail (see [simulated_annealing]). *)
let fold_error ~terms energy =
  float_of_int (terms + 2) *. epsilon_float *. energy

(* Turn the per-move cache on, every delta stale. *)
let table_cache table =
  let n = Array.length table.all in
  if Array.length table.err = n then Array.fill table.err 0 n infinity
  else begin
    table.dc <- Array.make n 0;
    table.de <- Array.make n 0.;
    table.err <- Array.make n infinity;
    table.low <- Array.make n 0.;
    table.pending <- Array.make n 0
  end;
  table.cached <- true

(* Allocate the per-move feasibility verdicts, none taken; verdicts
   kept from an earlier solve are stale already ([table_seat]). *)
let table_verdicts table =
  let n = Array.length table.all in
  if Array.length table.checked <> n then begin
    table.checked <- Array.make n (-1);
    table.fits <- Array.make n false
  end

(* Place the table on the totals of the engine's last fold: the start
   position's, or those of a probe about to be committed. *)
let table_at_last_fold table engine =
  table.cycles <- Engine.last_cycles engine;
  table.terms <- Engine.last_terms engine;
  table.energy.(0) <- Engine.last_energy engine

(* After an exact probe of [all.(j)] from the table's position: cache
   its deltas and their error bound, once the cache is on. *)
let table_record table engine j =
  if table.cached then begin
    let t = Engine.last_terms engine in
    let e = Engine.last_energy engine in
    let de = e -. table.energy.(0) in
    table.dc.(j) <- Engine.last_cycles engine - table.cycles;
    table.de.(j) <- de;
    table.err.(j) <-
      fold_error ~terms:t e
      +. fold_error ~terms:table.terms table.energy.(0)
      +. (epsilon_float *. Float.abs de);
    if t > table.t_max then table.t_max <- t
  end

(* [low.(j)] for a move with a valid cached delta: a lower bound on the
   value its exact probe would return at the table's position. *)
let table_lower objective table j =
  let c = table.cycles + table.dc.(j) in
  let e = table.energy.(0) +. table.de.(j) in
  let value = Cost.scalar_of objective ~total_cycles:c ~total_energy_pj:e in
  table.low.(j) <-
    (match objective with
    | Cost.Cycles -> value
    | Cost.Energy | Cost.Energy_delay ->
      let e_err =
        table.err.(j)
        +. fold_error ~terms:table.terms table.energy.(0)
        +. (epsilon_float *. Float.abs e)
      in
      let e_err =
        e_err
        +. fold_error ~terms:(table.terms + table.t_max) (Float.abs e +. e_err)
      in
      let scale =
        if objective = Cost.Energy then 1. else 2. *. float_of_int c
      in
      value -. ((scale *. e_err) +. (2. *. epsilon_float *. Float.abs value)))

(* [Engine.feasible] of [all.(k)]'s handle, once
   [table_verdicts] has run: the engine's occupancy state changes only
   on a commit, so a verdict taken since the last [table_commit] is
   still exact. *)
let table_feasible table engine k =
  if table.checked.(k) = table.position then table.fits.(k)
  else begin
    let ok = Engine.feasible engine table.handles.(k) in
    table.checked.(k) <- table.position;
    table.fits.(k) <- ok;
    ok
  end

(* After committing [all.(k)]: its owner now sits where that move put
   it, the cached deltas of its array's moves are stale, and so is
   every feasibility verdict. The caller moves the table to the new
   position's totals. *)
let table_commit table k =
  table.position <- table.position + 1;
  let o = table.owner.(k) in
  let live = ref 0 in
  for j = table.first.(o) to table.first.(o + 1) - 1 do
    let skip = (j = k) || same_target table.all.(j) table.all.(k) in
    table.skip.(j) <- skip;
    if not skip then incr live
  done;
  table.n_live <- table.n_live - table.live.(o) + !live;
  table.live.(o) <- !live;
  if table.cached then begin
    let a = table.array_of.(k) in
    for q = 0 to Array.length table.all - 1 do
      if table.array_of.(q) = a then table.err.(q) <- infinity
    done
  end

(* Both searches probe moves through the incremental {!Engine}, whose
   [probe] is bit-identical to a from-scratch [Cost.evaluate]; the
   tests hold them to from-scratch reference searches that probe the
   same moves in the same order and compare values the same way. *)

let no_checkpoint () = ()

(* The part of a solve that outlives it: the engine and the move table,
   built on the first hierarchy and re-seated on each later one of the
   same shape. *)
type solver = { engine : Engine.t; table : table }

type state = {
  config : config;
  program : Mhla_ir.Program.t;
  reuse : Mapping.reuse;
  mutable solver : solver option;
}

let prepare ?(config = default_config) ?reuse program =
  let reuse =
    match reuse with Some r -> r | None -> Mapping.precompute program
  in
  { config; program; reuse; solver = None }

(* The out-of-the-box mapping on [hierarchy], and the state's engine
   and move table seated on it — built first when the state has none,
   or none of the hierarchy's shape. *)
let seat ~telemetry st hierarchy =
  let config = st.config in
  let start =
    Mapping.direct ~transfer_mode:config.transfer_mode ~policy:config.policy
      ~reuse:st.reuse st.program hierarchy
  in
  let solver =
    match st.solver with
    | Some s when Engine.compatible s.engine start ->
      Engine.reseat ~telemetry s.engine start;
      s
    | Some _ | None ->
      let engine = Engine.create ~telemetry ~objective:config.objective start in
      let table =
        move_table ~alts:(all_alternatives config start) config engine start
      in
      let s = { engine; table } in
      st.solver <- Some s;
      s
  in
  table_seat solver.table start;
  (start, solver)

let greedy_on ?(first_improvement = false) ?(telemetry = Telemetry.noop)
    ?(checkpoint = no_checkpoint) st hierarchy =
  let config = st.config in
  Telemetry.span telemetry ~cat:"assign" "assign.greedy"
    ~args:(fun () ->
      [ ("first_improvement", Telemetry.Bool first_improvement);
        ( "objective",
          Telemetry.Str (Fmt.str "%a" Cost.pp_objective config.objective) )
      ])
  @@ fun () ->
  let evaluations = ref 1 (* the start position's evaluation *) in
  let mk_step move ~current ~value =
    let step = { move; gain = current -. value; objective_after = value } in
    Telemetry.instant telemetry ~cat:"assign" "greedy.step"
      ~args:(fun () ->
        [ ("move", Telemetry.Str (describe_move move));
          ("gain", Telemetry.Float step.gain);
          ("objective_before", Telemetry.Float current);
          ("objective_after", Telemetry.Float value) ]);
    step
  in
  let _, { engine; table } = seat ~telemetry st hierarchy in
  let n = Array.length table.all in
  let start_value = Engine.objective_value engine in
  table_at_last_fold table engine;
  (* The round's best probe's totals — the next position's after its
     commit, bit for bit. *)
  let best_cycles = ref 0 and best_terms = ref 0 in
  let best_energy = [| 0. |] in
  (* The best move of a round as its table index ([-1]: none improves)
     and its value. Every unskipped move's feasibility is checked, in
     [moves] order. A move with a valid cached delta whose lower bound
     reaches the threshold is skipped; in steepest mode the others
     wait until every stale move has been probed, then are probed
     from the lowest bound up while their bound could still beat the
     best value found. Every move left unprobed provably neither
     improves nor wins, and ties go to the earliest move, so the
     round picks the eager scan's move. *)
  let select ~current =
    let threshold = threshold current in
    let best = ref (-1) in
    let best_value = ref 0. in
    let probe j =
      let value = Engine.probe engine table.handles.(j) in
      if value < threshold && not table.cached then table_cache table;
      table_record table engine j;
      if
        value < threshold
        && (!best < 0 || value < !best_value
           || (value = !best_value && j < !best))
      then begin
        best := j;
        best_value := value;
        best_cycles := Engine.last_cycles engine;
        best_terms := Engine.last_terms engine;
        best_energy.(0) <- Engine.last_energy engine
      end
    in
    let n_pending = ref 0 in
    let k = ref 0 in
    while !k < n do
      let j = !k in
      incr k;
      if (not table.skip.(j)) && Engine.feasible engine table.handles.(j)
      then begin
        incr evaluations;
        if table.cached && table.err.(j) < infinity then begin
          table_lower config.objective table j;
          if table.low.(j) < threshold then
            if first_improvement then probe j
            else begin
              table.pending.(!n_pending) <- j;
              incr n_pending
            end
        end
        else probe j;
        if first_improvement && !best >= 0 then k := n
      end
    done;
    while !n_pending > 0 do
      let m = ref 0 in
      for q = 1 to !n_pending - 1 do
        if table.low.(table.pending.(q)) < table.low.(table.pending.(!m))
        then m := q
      done;
      let j = table.pending.(!m) in
      if !best >= 0 && table.low.(j) > !best_value then n_pending := 0
      else begin
        decr n_pending;
        table.pending.(!m) <- table.pending.(!n_pending);
        probe j
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
      Engine.commit engine table.handles.(j);
      table_commit table j;
      table.cycles <- !best_cycles;
      table.terms <- !best_terms;
      table.energy.(0) <- best_energy.(0);
      descend value (step :: steps)
  in
  let mapping, _, steps = descend start_value [] in
  result engine mapping (Engine.breakdown engine) steps !evaluations

let greedy ?config ?first_improvement ?telemetry ?reuse ?checkpoint program
    hierarchy =
  greedy_on ?first_improvement ?telemetry ?checkpoint
    (prepare ?config ?reuse program)
    hierarchy

let simulated_annealing_on ?(telemetry = Telemetry.noop)
    ?(checkpoint = no_checkpoint) ?(seed = 42L) ?(iterations = 4000) st
    hierarchy =
  let config = st.config in
  Telemetry.span telemetry ~cat:"assign" "assign.anneal"
    ~args:(fun () ->
      [ ("seed", Telemetry.Str (Int64.to_string seed));
        ("iterations", Telemetry.Int iterations) ])
  @@ fun () ->
  let prng = Mhla_util.Prng.create ~seed in
  let start, { engine; table } = seat ~telemetry st hierarchy in
  let evaluations = ref 1 (* the start position's evaluation *) in
  let start_value = Engine.objective_value engine in
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
  (* The move is drawn from the table's unskipped moves, which are the
     [moves] list in order; [-1]: there is none. *)
  table_cache table;
  table_verdicts table;
  table_at_last_fold table engine;
  let pick () =
    if table.n_live = 0 then -1
    else table_nth table (Mhla_util.Prng.int prng ~bound:table.n_live)
  in
  (* Probe the feasible move [all.(k)] and accept or reject it as the
     eager loop would; [u] is the uniform already drawn for it, or
     [nan] when none was. *)
  let probe_and_decide iter k u =
    let value = Engine.probe engine table.handles.(k) in
    table_record table engine k;
    let delta = value -. !current_value in
    let accept =
      delta < 0.
      || (if Float.is_nan u then Mhla_util.Prng.float prng else u)
         < exp (-.delta /. !temperature)
    in
    if Telemetry.enabled telemetry then
      Telemetry.instant telemetry ~cat:"assign"
        (if accept then "anneal.accept" else "anneal.reject")
        ~args:(fun () ->
          [ ("iteration", Telemetry.Int iter);
            ("temperature", Telemetry.Float !temperature);
            ("delta", Telemetry.Float delta);
            ("objective", Telemetry.Float value) ]);
    if accept then begin
      let move = table.all.(k) in
      table_at_last_fold table engine;
      Engine.commit engine table.handles.(k);
      table_commit table k;
      current_value := value;
      if value < !best_value then begin
        let improvement = !best_value -. value in
        best := Engine.mapping engine;
        best_value := value;
        Telemetry.instant telemetry ~cat:"assign" "anneal.best"
          ~args:(fun () ->
            [ ("iteration", Telemetry.Int iter);
              ("move", Telemetry.Str (describe_move move));
              ("objective", Telemetry.Float value) ]);
        steps := { move; gain = improvement; objective_after = value } :: !steps
      end
    end
  in
  (* A feasible move whose cached delta is fresh has a lower bound
     [low] on its exact value (see [fold_error]). When
     [low -. current >= 0.], the exact [delta] is [>= 0.] too, so the
     eager loop would draw [u] for it: draw it here, at the same point
     of the stream. [delta >= low -. current] (rounding is monotone),
     so at a positive temperature [exp (-.delta /. t)] is at most
     [exp (-.(low -. current) /. t)] up to libm's error, which the
     relative [1e-9] and the absolute [min_float] (subnormal results)
     cover: a [u] at or above that bound is a certain rejection, made
     without a probe. Anything that might be accepted is probed — its
     commit needs the exact value anyway — and decided with the same
     [u]. Every draw still gets its feasibility verdict, reused from the
     table while no commit intervenes ([table_feasible]). Draws,
     accepts and [evaluations] are the eager loop's; only the probes
     and the repeated checks drop. *)
  for iter = 1 to iterations do
    checkpoint ();
    let k = pick () in
    if k >= 0 && table_feasible table engine k then begin
      incr evaluations;
      let delta_low =
        if table.err.(k) < infinity then begin
          table_lower config.objective table k;
          table.low.(k) -. !current_value
        end
        else neg_infinity
      in
      if delta_low >= 0. then begin
        let u = Mhla_util.Prng.float prng in
        if
          !temperature > 0.
          && u
             >= (exp (-.delta_low /. !temperature) *. (1. +. 1e-9))
                +. Float.min_float
        then begin
          if Telemetry.enabled telemetry then
            Telemetry.instant telemetry ~cat:"assign" "anneal.reject"
              ~args:(fun () ->
                [ ("iteration", Telemetry.Int iter);
                  ("temperature", Telemetry.Float !temperature);
                  ("certified", Telemetry.Bool true);
                  ("delta_low", Telemetry.Float delta_low) ])
        end
        else probe_and_decide iter k u
      end
      else probe_and_decide iter k Float.nan
    end;
    temperature := !temperature *. decay
  done;
  result engine !best (Cost.evaluate !best) (List.rev !steps) !evaluations

let simulated_annealing ?config ?telemetry ?reuse ?checkpoint ?seed
    ?iterations program hierarchy =
  simulated_annealing_on ?telemetry ?checkpoint ?seed ?iterations
    (prepare ?config ?reuse program)
    hierarchy
