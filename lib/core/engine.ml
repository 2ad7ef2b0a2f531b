module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Hierarchy = Mhla_arch.Hierarchy
module Interval = Mhla_util.Interval
module Occupancy = Mhla_lifetime.Occupancy
module Schedule = Mhla_lifetime.Schedule
module Telemetry = Mhla_obs.Telemetry

type move =
  | Set_placement of Analysis.access_ref * Mapping.placement
  | Set_array of string * int option

type stats = {
  probes : int;
  commits : int;
  contribs_reused : int;
  contribs_recomputed : int;
  entries_invalidated : int;
}

(* One cached block-transfer contribution, exactly the tuple
   [Cost.bt_contribution] returns (hidden = 0: the searches never
   overlap transfers — that is TE's job, after assignment). *)
type contrib = {
  c_stall : int;
  c_setup : int;
  c_energy : float;
  c_dma : float;
}

(* The dedupe key is computed and interned to a dense int id once per
   cached transfer (at refresh time); the totals fold then dedupes with
   a generation-stamped array instead of hashing keys per probe. *)
type cached_bt = { bt : Mapping.block_transfer; key_id : int; contrib : contrib }

type entry = {
  info : Analysis.info;
  mutable placement : Mapping.placement;
  mutable acc_stall : int;
  mutable acc_energy : float;
  mutable chain_bts : cached_bt list;
  (* Contributions memoised per (placement, home layer): a (placement,
     home) pair fully determines this entry's terms, and the searches
     probe the same physically-shared alternative placements over and
     over (greedy re-probes every move each round), so a revisit is a
     pointer-compare lookup with no hashing or key allocation. Bounded
     by [memo_cap]; stale entries (placements the caller no longer
     holds) age out at the tail. *)
  mutable memo : (Mapping.placement * int * int * float * cached_bt list) list;
}

let memo_cap = 64

(* --- occupancy state ----------------------------------------------------

   [Mapping.occupancy_ok] rebuilds every layer's blocks and re-sweeps
   them; here each capacity-bound level keeps a per-slot byte profile
   (one slot under [Sum], where lifetimes do not matter) and the engine
   counts the slots over capacity. A move re-derives only the blocks it
   touches and rewrites only their slots. *)

(* A block as charged to a profile: slots [lo, hi), already widened
   (an empty lifetime still holds its buffer for one slot) or, under
   [Sum], collapsed onto the single slot. *)
type span = { lo : int; hi : int; bytes : int }

(* The buffer one [share_key] group occupies on one level: the hull of
   its sharers' lifetimes and the largest of their footprints, exactly
   as [Mapping.layer_blocks] merges them. *)
type group = {
  level : int;
  mutable sharers : (int * Interval.t * int) list;
      (* (entry, lifetime, bytes), in placements (= entry) order *)
  mutable charged : span option;
}

(* A copy candidate with its lifetime and the group its buffer joins on
   each level ([None] where the level is unbounded), derived once per
   candidate instead of once per check. *)
type cand = { c : Candidate.t; iv : Interval.t; groups : group option array }

type profile = { capacity : int; load : int array }

type occ = {
  policy : Occupancy.policy;
  schedule : Schedule.t;
  profiles : profile option array;  (* by level; [None] = unbounded *)
  cands : cand array array;  (* per entry: its access's candidates *)
  groups : (string * int, group) Hashtbl.t;  (* by (share_key, level) *)
  arrays : (string, span) Hashtbl.t;
  mutable over : int;  (* slots over capacity, all levels *)
}

type counters = {
  mutable n_probes : int;
  mutable n_commits : int;
  mutable n_reused : int;
  mutable n_recomputed : int;
  mutable n_invalidated : int;
}

type t = {
  objective : Cost.objective;
  mutable mapping : Mapping.t;
  entries : entry array;  (* in [mapping.infos] order *)
  index : (Analysis.access_ref, int) Hashtbl.t;
  (* The searches probe every alternative of one access in a row, all
     carrying the physically same [access_ref], and check each one's
     feasibility before probing it: remembering the last lookup hashes
     the key once per run instead of twice per move. *)
  mutable last_lookup : (Analysis.access_ref * int) option;
  by_array : (string, int list) Hashtbl.t;
  (* Mirror of [mapping.array_layers], updated with the same
     remove-then-prepend discipline as [Mapping.with_array_layer]: the
     promoted fill/drain transfers are folded in this list's order, and
     float sums are order-sensitive. *)
  mutable array_layers : (string * int) list;
  promoted : (string * int, cached_bt list) Hashtbl.t;
  (* Key interning and the stamp array behind the totals dedupe. A
     stamp equal to the current generation means "already folded this
     round" — bumping the generation clears the set in O(1). *)
  key_ids : (string * bool * int * int, int) Hashtbl.t;
  mutable stamps : int array;
  mutable generation : int;
  main : int;
  dma : Mhla_arch.Dma.t option;
  compute : int;
  counters : counters;
  telemetry : Telemetry.t;
  occ : occ;
}

let array_layer t array =
  match List.assoc_opt array t.array_layers with
  | Some level -> level
  | None -> t.main

(* [==] is exact for [Direct] (an immediate) and sound for chains: a
   physically-equal chain trivially has equal candidates and layers.
   Distinct-but-structurally-equal chains just miss and recompute. *)
let memo_find memo placement home =
  let rec go = function
    | [] -> None
    | (p, h, stall, energy, bts) :: rest ->
      if p == placement && h = home then Some (stall, energy, bts)
      else go rest
  in
  go memo

let intern_key t key =
  match Hashtbl.find_opt t.key_ids key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.key_ids in
    Hashtbl.replace t.key_ids key id;
    if id >= Array.length t.stamps then begin
      let grown = Array.make (max 16 (2 * (id + 1))) 0 in
      Array.blit t.stamps 0 grown 0 (Array.length t.stamps);
      t.stamps <- grown
    end;
    id

let bt_with_contrib t bt =
  let c_stall, c_setup, c_energy, c_dma =
    Cost.bt_contribution ~dma:t.dma t.mapping bt
  in
  t.counters.n_recomputed <- t.counters.n_recomputed + 1;
  {
    bt;
    key_id = intern_key t (Mapping.bt_dedupe_key bt);
    contrib = { c_stall; c_setup; c_energy; c_dma };
  }

(* Bring [e]'s cached terms in line with its placement and its array's
   current home layer, through the per-entry memo. *)
let refresh t (e : entry) =
  let home = array_layer t e.info.Analysis.array in
  match memo_find e.memo e.placement home with
  | Some (stall, energy, bts) ->
    e.acc_stall <- stall;
    e.acc_energy <- energy;
    e.chain_bts <- bts
  | None ->
    let level =
      match e.placement with
      | Mapping.Direct -> home
      | Mapping.Chain (link :: _) -> link.Mapping.layer
      | Mapping.Chain [] -> assert false
    in
    let stall, energy = Cost.access_contribution t.mapping ~level e.info in
    e.acc_stall <- stall;
    e.acc_energy <- energy;
    t.counters.n_recomputed <- t.counters.n_recomputed + 1;
    e.chain_bts <-
      (match e.placement with
      | Mapping.Direct -> []
      | Mapping.Chain links ->
        List.map (bt_with_contrib t)
          (Mapping.transfers_of_chain
             ~transfer_mode:t.mapping.Mapping.transfer_mode ~home links));
    let kept =
      if List.length e.memo >= memo_cap then
        List.filteri (fun i _ -> i < memo_cap - 1) e.memo
      else e.memo
    in
    e.memo <- (e.placement, home, e.acc_stall, e.acc_energy, e.chain_bts) :: kept

let promoted_contribs t array level =
  match Hashtbl.find_opt t.promoted (array, level) with
  | Some cs -> cs
  | None ->
    let cs =
      List.map (bt_with_contrib t)
        (Mapping.promoted_transfers t.mapping ~array ~level)
    in
    Hashtbl.replace t.promoted (array, level) cs;
    cs

let index_of t r =
  match t.last_lookup with
  | Some (r', i) when r' == r -> i
  | Some _ | None ->
    let i = Hashtbl.find t.index r in
    t.last_lookup <- Some (r, i);
    i

let indices_of_array t array =
  Option.value ~default:[] (Hashtbl.find_opt t.by_array array)

(* Mutate the cached state by [move] and return the closure undoing
   it. The [mapping] field itself is untouched — [commit] advances it
   separately, through the validating [Mapping] updates. *)
let apply_internal t move =
  match move with
  | Set_placement (r, p) ->
    let i = index_of t r in
    let e = t.entries.(i) in
    let old_p = e.placement in
    let old_stall = e.acc_stall in
    let old_energy = e.acc_energy in
    let old_bts = e.chain_bts in
    e.placement <- p;
    refresh t e;
    fun () ->
      e.placement <- old_p;
      e.acc_stall <- old_stall;
      e.acc_energy <- old_energy;
      e.chain_bts <- old_bts
  | Set_array (array, layer) ->
    let old_layers = t.array_layers in
    let removed = List.remove_assoc array t.array_layers in
    t.array_layers <-
      (match layer with
      | None -> removed
      | Some level -> (array, level) :: removed);
    let dirty = indices_of_array t array in
    t.counters.n_invalidated <- t.counters.n_invalidated + List.length dirty;
    Telemetry.count t.telemetry ~cat:"engine" "engine.entries_invalidated"
      (List.length dirty);
    let saved =
      List.map
        (fun i ->
          let e = t.entries.(i) in
          (e, e.acc_stall, e.acc_energy, e.chain_bts))
        dirty
    in
    (* Direct accesses follow the array; chained ones keep their
       serving layer but refill from the new home. The memo covers
       both, keyed by the new home. *)
    List.iter (fun i -> refresh t t.entries.(i)) dirty;
    fun () ->
      t.array_layers <- old_layers;
      List.iter
        (fun (e, stall, energy, bts) ->
          e.acc_stall <- stall;
          e.acc_energy <- energy;
          e.chain_bts <- bts)
        saved

(* Re-fold the cached contributions in the exact order [Cost.evaluate]
   folds the real units: accesses in infos order; chain transfers in
   placements order, first [bt_dedupe_key] occurrence kept; promoted
   fill/drain streams in [array_layers] order. Returns the breakdown
   and the number of contributions folded (for the hit/miss stats). *)
let totals t =
  let folded = ref 0 in
  let access_stall = ref 0 in
  let access_energy = ref 0. in
  Array.iter
    (fun e ->
      access_stall := !access_stall + e.acc_stall;
      access_energy := !access_energy +. e.acc_energy;
      incr folded)
    t.entries;
  let stall = ref 0 in
  let setup = ref 0 in
  let energy = ref 0. in
  let dma_energy = ref 0. in
  let add cached =
    let c = cached.contrib in
    stall := !stall + c.c_stall;
    setup := !setup + c.c_setup;
    energy := !energy +. c.c_energy;
    dma_energy := !dma_energy +. c.c_dma;
    incr folded
  in
  t.generation <- t.generation + 1;
  let gen = t.generation in
  Array.iter
    (fun e ->
      List.iter
        (fun cached ->
          if t.stamps.(cached.key_id) <> gen then begin
            t.stamps.(cached.key_id) <- gen;
            add cached
          end)
        e.chain_bts)
    t.entries;
  List.iter
    (fun (array, level) -> List.iter add (promoted_contribs t array level))
    t.array_layers;
  let breakdown =
    {
      Cost.compute_cycles = t.compute;
      access_stall_cycles = !access_stall;
      transfer_stall_cycles = !stall;
      dma_setup_cycles = !setup;
      total_cycles = t.compute + !access_stall + !stall + !setup;
      access_energy_pj = !access_energy;
      transfer_energy_pj = !energy;
      dma_energy_pj = !dma_energy;
      total_energy_pj = !access_energy +. !energy +. !dma_energy;
    }
  in
  (breakdown, !folded)

(* --- incremental feasibility ------------------------------------------ *)

let span_of policy (iv : Interval.t) bytes =
  match policy with
  | Occupancy.Sum -> { lo = 0; hi = 1; bytes }
  | Occupancy.In_place ->
    let lo = iv.Interval.lo in
    let hi = if Interval.is_empty iv then lo + 1 else iv.Interval.hi in
    { lo; hi; bytes }

(* Add ([sign] = 1) or remove ([-1]) a span, keeping [over] exact. *)
let charge occ level sign sp =
  match occ.profiles.(level) with
  | None -> ()
  | Some { capacity; load } ->
    let w = sign * sp.bytes in
    for s = sp.lo to sp.hi - 1 do
      let before = load.(s) > capacity in
      load.(s) <- load.(s) + w;
      match (before, load.(s) > capacity) with
      | false, true -> occ.over <- occ.over + 1
      | true, false -> occ.over <- occ.over - 1
      | true, true | false, false -> ()
    done

let group_of groups ~key ~level =
  match Hashtbl.find_opt groups (key, level) with
  | Some g -> g
  | None ->
    let g = { level; sharers = []; charged = None } in
    Hashtbl.replace groups (key, level) g;
    g

let cand_of_candidate ~profiles ~groups schedule c =
  {
    c;
    iv = Schedule.candidate_interval schedule c;
    groups =
      Array.mapi
        (fun level profile ->
          Option.map
            (fun _ -> group_of groups ~key:c.Candidate.share_key ~level)
            profile)
        profiles;
  }

(* The precomputed record of a chain link's candidate; a candidate that
   is not physically one of the access's own (hand-built chains) is
   derived on the spot, with the same result. *)
let cand_of occ i (link : Mapping.chain_link) =
  let own = occ.cands.(i) in
  let rec find k =
    if k = Array.length own then
      cand_of_candidate ~profiles:occ.profiles ~groups:occ.groups
        occ.schedule link.Mapping.candidate
    else if own.(k).c == link.Mapping.candidate then own.(k)
    else find (k + 1)
  in
  find 0

(* [Mapping.layer_blocks]'s merge: hull folded in placements order
   (an empty lifetime yields to any non-empty one), largest footprint. *)
let group_span occ = function
  | [] -> None
  | (_, iv0, b0) :: rest ->
    let iv, bytes =
      List.fold_left
        (fun (iv, bytes) (_, iv', b') -> (Interval.hull iv iv', max bytes b'))
        (iv0, b0) rest
    in
    Some (span_of occ.policy iv bytes)

(* The groups a placement of entry [i] joins, with the sharer it adds;
   levels without a capacity are never tracked. *)
let joins occ i = function
  | Mapping.Direct -> []
  | Mapping.Chain links ->
    List.filter_map
      (fun (link : Mapping.chain_link) ->
        let cd = cand_of occ i link in
        Option.map
          (fun g -> (g, (i, cd.iv, cd.c.Candidate.footprint_bytes)))
          cd.groups.(link.Mapping.layer))
      links

(* Every group entry [i] leaves or joins when it moves from placement
   [from] to [p], with the group's new sharers and new block. *)
let placement_delta occ i ~from p =
  let joined = joins occ i p in
  let affected =
    List.fold_left
      (fun acc g -> if List.memq g acc then acc else g :: acc)
      [] (List.map fst (joins occ i from) @ List.map fst joined)
  in
  List.map
    (fun g ->
      let kept = List.filter (fun (j, _, _) -> j <> i) g.sharers in
      let sharers =
        match List.assq_opt g joined with
        | None -> kept
        | Some sharer ->
          let rec insert = function
            | ((j, _, _) as s) :: rest when j < i -> s :: insert rest
            | rest -> sharer :: rest
          in
          insert kept
      in
      (g, sharers, group_span occ sharers))
    affected

(* The charges a move makes, as (level, sign, span), plus the group
   updates a commit installs. *)
let delta t move =
  let occ = t.occ in
  match move with
  | Set_placement (r, p) ->
    let i = index_of t r in
    let changes = placement_delta occ i ~from:t.entries.(i).placement p in
    let charges =
      List.concat_map
        (fun (g, _, block) ->
          if block = g.charged then []
          else
            let at sign = Option.map (fun sp -> (g.level, sign, sp)) in
            Option.to_list (at (-1) g.charged) @ Option.to_list (at 1 block))
        changes
    in
    (charges, changes)
  | Set_array (array, target) ->
    let sp = Hashtbl.find occ.arrays array in
    let off =
      match List.assoc_opt array t.array_layers with
      | Some level -> [ (level, -1, sp) ]
      | None -> []
    in
    let on = match target with Some level -> [ (level, 1, sp) ] | None -> [] in
    (off @ on, [])

let apply_charges occ sign charges =
  List.iter (fun (level, s, sp) -> charge occ level (sign * s) sp) charges

(* The occupancy state of [m], whose placements [entries] mirror. *)
let build_occ policy (m : Mapping.t) entries =
  let h = m.Mapping.hierarchy in
  let schedule = m.Mapping.schedule in
  let slots =
    match policy with
    | Occupancy.Sum -> 1
    | Occupancy.In_place -> Schedule.horizon schedule + 1
  in
  let main = Hierarchy.main_memory_level h in
  let profiles =
    Array.init (Hierarchy.levels h) (fun level ->
        if level = main then None
        else
          Option.map
            (fun capacity -> { capacity; load = Array.make slots 0 })
            (Hierarchy.layer h level).Mhla_arch.Layer.capacity_bytes)
  in
  let groups = Hashtbl.create 64 in
  let occ =
    {
      policy;
      schedule;
      profiles;
      cands =
        Array.map
          (fun e ->
            Array.of_list
              (List.map
                 (cand_of_candidate ~profiles ~groups schedule)
                 e.info.Analysis.candidates))
          entries;
      groups;
      arrays = Hashtbl.create 16;
      over = 0 (* capacities are positive: empty profiles fit *);
    }
  in
  List.iter
    (fun (d : Mhla_ir.Array_decl.t) ->
      let name = d.Mhla_ir.Array_decl.name in
      Hashtbl.replace occ.arrays name
        (span_of policy
           (Schedule.array_interval schedule name)
           (Mhla_ir.Array_decl.size_bytes d)))
    m.Mapping.program.Mhla_ir.Program.arrays;
  (* Sharers join in entry order, then each group is charged once. *)
  Array.iteri
    (fun i e ->
      List.iter
        (fun (g, sharer) -> g.sharers <- g.sharers @ [ sharer ])
        (joins occ i e.placement))
    entries;
  Hashtbl.iter
    (fun _ g ->
      g.charged <- group_span occ g.sharers;
      Option.iter (charge occ g.level 1) g.charged)
    groups;
  List.iter
    (fun (array, level) -> charge occ level 1 (Hashtbl.find occ.arrays array))
    m.Mapping.array_layers;
  occ

let feasible t move =
  let charges, _ = delta t move in
  apply_charges t.occ 1 charges;
  let ok = t.occ.over = 0 in
  apply_charges t.occ (-1) charges;
  ok

(* Advance the occupancy state by [move]; must run before
   [apply_internal] moves the entry's placement. *)
let commit_occ t move =
  let charges, changes = delta t move in
  apply_charges t.occ 1 charges;
  List.iter
    (fun (g, sharers, block) ->
      g.sharers <- sharers;
      g.charged <- block)
    changes

let create ?(telemetry = Telemetry.noop) ?(policy = Occupancy.In_place)
    ~objective (m : Mapping.t) =
  let entries =
    Array.of_list
      (List.map
         (fun (info : Analysis.info) ->
           {
             info;
             placement = Mapping.placement_of m info.Analysis.ref_;
             acc_stall = 0;
             acc_energy = 0.;
             chain_bts = [];
             memo = [];
           })
         m.Mapping.infos)
  in
  let index = Hashtbl.create (Array.length entries) in
  let by_array = Hashtbl.create 8 in
  Array.iteri
    (fun i e ->
      Hashtbl.replace index e.info.Analysis.ref_ i;
      let arr = e.info.Analysis.array in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_array arr) in
      Hashtbl.replace by_array arr (prev @ [ i ]))
    entries;
  Telemetry.span telemetry ~cat:"engine" "engine.create" @@ fun () ->
  let t =
    {
      objective;
      mapping = m;
      entries;
      index;
      last_lookup = None;
      by_array;
      array_layers = m.Mapping.array_layers;
      promoted = Hashtbl.create 8;
      key_ids = Hashtbl.create 16;
      stamps = Array.make 16 0;
      generation = 0;
      main = Hierarchy.main_memory_level m.Mapping.hierarchy;
      dma =
        (if Hierarchy.has_dma m.Mapping.hierarchy then
           Some (Hierarchy.dma_exn m.Mapping.hierarchy)
         else None);
      compute = Mhla_ir.Program.total_work_cycles m.Mapping.program;
      counters =
        {
          n_probes = 0;
          n_commits = 0;
          n_reused = 0;
          n_recomputed = 0;
          n_invalidated = 0;
        };
      telemetry;
      occ = build_occ policy m entries;
    }
  in
  Array.iter (refresh t) t.entries;
  t

let mapping t = t.mapping

let breakdown t = fst (totals t)

let objective_value t = Cost.scalar t.objective (breakdown t)

let move_kind = function
  | Set_placement _ -> "set_placement"
  | Set_array _ -> "set_array"

let probe t move =
  Telemetry.span t.telemetry ~cat:"engine" "engine.probe"
    ~args:(fun () -> [ ("move", Telemetry.Str (move_kind move)) ])
    (fun () ->
      t.counters.n_probes <- t.counters.n_probes + 1;
      let before = t.counters.n_recomputed in
      let undo = apply_internal t move in
      let b, folded = totals t in
      undo ();
      let recomputed = t.counters.n_recomputed - before in
      let reused = max 0 (folded - recomputed) in
      t.counters.n_reused <- t.counters.n_reused + reused;
      if Telemetry.enabled t.telemetry then begin
        Telemetry.count t.telemetry ~cat:"engine" "engine.probes" 1;
        Telemetry.count t.telemetry ~cat:"engine" "engine.cache_hits" reused;
        Telemetry.count t.telemetry ~cat:"engine" "engine.cache_misses"
          recomputed
      end;
      Cost.scalar t.objective b)

let commit t move =
  Telemetry.span t.telemetry ~cat:"engine" "engine.commit"
    ~args:(fun () -> [ ("move", Telemetry.Str (move_kind move)) ])
    (fun () ->
      (* Validate through the real [Mapping] update first: if it rejects
         the move we raise before any cached state is dirtied. *)
      let mapping' =
        match move with
        | Set_placement (r, p) -> Mapping.with_placement t.mapping r p
        | Set_array (a, l) ->
          Mapping.with_array_layer t.mapping ~array:a ~layer:l
      in
      commit_occ t move;
      ignore (apply_internal t move : unit -> unit);
      t.mapping <- mapping';
      t.counters.n_commits <- t.counters.n_commits + 1;
      Telemetry.count t.telemetry ~cat:"engine" "engine.commits" 1)

let stats t =
  {
    probes = t.counters.n_probes;
    commits = t.counters.n_commits;
    contribs_reused = t.counters.n_reused;
    contribs_recomputed = t.counters.n_recomputed;
    entries_invalidated = t.counters.n_invalidated;
  }
