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
   overlap transfers — that is TE's job, after assignment). The dedupe
   key is interned to a dense int id once, when the transfer is
   derived; the totals fold then dedupes with a generation-stamped
   array instead of hashing keys per probe. *)
type cached_bt = {
  key_id : int;
  c_stall : int;
  c_setup : int;
  c_energy : float;
  c_dma : float;
}

(* --- occupancy state ----------------------------------------------------

   [Mapping.occupancy_ok] rebuilds every layer's blocks and re-sweeps
   them; here each capacity-bound level keeps a per-slot byte profile
   (one slot under [Sum], where lifetimes do not matter) and the engine
   counts the slots over capacity. A move re-derives only the blocks it
   touches and rewrites only their slots. *)

type profile = { capacity : int; load : int array }

(* One chain link's buffer as its share group sees it: the owning
   entry, the candidate's lifetime [lo, hi) and its footprint. *)
type sharer = { entry : int; lo : int; hi : int; bytes : int }

(* The buffer one [share_key] group occupies on one level: the hull of
   its sharers' lifetimes and the largest of their footprints, exactly
   as [Mapping.layer_blocks] merges them. The charged block is kept as
   plain ints (slots [c_lo, c_hi), already widened, or collapsed onto
   the single slot under [Sum]) so a check compares it without
   allocating. *)
type group = {
  level : int;
  mutable sharers : sharer list;  (* in placements (= entry) order *)
  mutable c_on : bool;  (* false: no sharer, nothing charged *)
  mutable c_lo : int;
  mutable c_hi : int;
  mutable c_bytes : int;
}

(* One access alternative compiled for one entry: everything a check
   or a probe needs, derived the first time the engine sees the
   placement (by physical identity) and reused every round after.

   - [groups]/[sharers]: one slot per chain link held on a
     capacity-bound level, link order — the share groups this placement
     joins and the buffer it adds to each.
   - the cost terms by home level (the level holding the entry's
     array): the access contribution and the chain transfers, which
     depend on the home only through a [Direct] access's serving layer
     and the outermost link's source. Filled on first use ([known]). *)
type alt = {
  placement : Mapping.placement;
  groups : group array;
  sharers : sharer array;
  known : bool array;
  stall : int array;
  energy : float array;
  bts : cached_bt array array;
}

type entry = {
  info : Analysis.info;
  array : int;  (* array id *)
  mutable alt : alt;  (* the compiled current placement *)
  (* Compiled alternatives, newest first. Bounded by [alt_cap]: the
     searches hold one physically-shared list of alternatives per
     access, so the cache stops growing once each has been seen; stale
     records (placements the caller no longer holds) age out at the
     tail. *)
  mutable cache : alt list;
  mutable cached : int;
}

let alt_cap = 64

type occ = {
  policy : Occupancy.policy;
  schedule : Schedule.t;
  profiles : profile option array;  (* by level; [None] = unbounded *)
  groups : (string * int, group) Hashtbl.t;  (* by (share_key, level) *)
  mutable over : int;  (* slots over capacity, all levels *)
  (* Scratch for one placement check: the groups the move leaves or
     joins and, per group, the block it would charge. Sized to twice
     the most links any compiled alternative holds on bounded levels. *)
  mutable aff : group array;
  mutable n_aff : int;
  mutable n_on : bool array;
  mutable n_lo : int array;
  mutable n_hi : int array;
  mutable n_bytes : int array;
  (* The hull fold's accumulator. *)
  mutable f_on : bool;
  mutable f_lo : int;
  mutable f_hi : int;
  mutable f_bytes : int;
}

(* A program array: its whole-array block, the entries whose terms its
   home moves, and its fill/drain terms per level, derived on first
   use. *)
type array_state = {
  name : string;
  a_lo : int;
  a_hi : int;
  a_bytes : int;
  dirty : int array;
  promoted : cached_bt array option array;  (* by level *)
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
     carrying the physically same [access_ref]: remembering the last
     lookup hashes the key once per run. *)
  mutable last_ref : Analysis.access_ref;
  mutable last_index : int;
  arrays : array_state array;
  array_ids : (string, int) Hashtbl.t;
  homes : int array;  (* by array id: the level holding it *)
  (* The promoted arrays in [mapping.array_layers] order, kept with the
     same remove-then-prepend discipline as [Mapping.with_array_layer]:
     their fill/drain transfers are folded in this order, and float
     sums are order-sensitive. [saved_order] is a probe's copy. *)
  order : int array;
  mutable n_order : int;
  saved_order : int array;
  key_ids : (string * bool * int * int, int) Hashtbl.t;
  (* Stamp equal to the current generation = "already folded this
     round"; bumping the generation clears the set in O(1). *)
  mutable stamps : int array;
  mutable generation : int;
  (* The totals fold's accumulators. *)
  mutable s_access_stall : int;
  mutable s_stall : int;
  mutable s_setup : int;
  sums : float array;  (* access, transfer, dma energy *)
  mutable folded : int;
  main : int;
  levels : int;
  dma : Mhla_arch.Dma.t option;
  compute : int;
  counters : counters;
  telemetry : Telemetry.t;
  occ : occ;
}

(* What a cache lookup that misses returns, and every entry's
   alternative until [create] installs its placement. *)
let no_alt =
  {
    placement = Mapping.Direct;
    groups = [||];
    sharers = [||];
    known = [||];
    stall = [||];
    energy = [||];
    bts = [||];
  }

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

let cached_bt t bt =
  let c_stall, c_setup, c_energy, c_dma =
    Cost.bt_contribution ~dma:t.dma t.mapping bt
  in
  t.counters.n_recomputed <- t.counters.n_recomputed + 1;
  let key_id = intern_key t (Mapping.bt_dedupe_key bt) in
  { key_id; c_stall; c_setup; c_energy; c_dma }

(* Derive [a]'s cost terms for an entry whose array sits on [home],
   unless an earlier probe already did. *)
let ensure_terms t (e : entry) a home =
  if not a.known.(home) then begin
    let level =
      match a.placement with
      | Mapping.Direct -> home
      | Mapping.Chain (link :: _) -> link.Mapping.layer
      | Mapping.Chain [] -> assert false
    in
    let stall, energy = Cost.access_contribution t.mapping ~level e.info in
    a.stall.(home) <- stall;
    a.energy.(home) <- energy;
    t.counters.n_recomputed <- t.counters.n_recomputed + 1;
    a.bts.(home) <-
      (match a.placement with
      | Mapping.Direct -> [||]
      | Mapping.Chain links ->
        Array.of_list
          (List.map (cached_bt t)
             (Mapping.transfers_of_chain
                ~transfer_mode:t.mapping.Mapping.transfer_mode ~home links)));
    a.known.(home) <- true
  end

let refresh t i =
  let e = t.entries.(i) in
  ensure_terms t e e.alt t.homes.(e.array)

let promoted t id level =
  let st = t.arrays.(id) in
  match st.promoted.(level) with
  | Some bts -> bts
  | None ->
    let bts =
      Array.of_list
        (List.map (cached_bt t)
           (Mapping.promoted_transfers t.mapping ~array:st.name ~level))
    in
    st.promoted.(level) <- Some bts;
    bts

let add_bt t c =
  t.s_stall <- t.s_stall + c.c_stall;
  t.s_setup <- t.s_setup + c.c_setup;
  t.sums.(1) <- t.sums.(1) +. c.c_energy;
  t.sums.(2) <- t.sums.(2) +. c.c_dma;
  t.folded <- t.folded + 1

(* Re-fold the cached contributions into the accumulators, in the
   exact order [Cost.evaluate] folds the real units: accesses in infos
   order; chain transfers in placements order, first [bt_dedupe_key]
   occurrence kept; promoted fill/drain streams in [array_layers]
   order. Every entry's current terms must be derived. *)
let fold t =
  t.s_access_stall <- 0;
  t.s_stall <- 0;
  t.s_setup <- 0;
  t.sums.(0) <- 0.;
  t.sums.(1) <- 0.;
  t.sums.(2) <- 0.;
  t.folded <- 0;
  let entries = t.entries in
  for i = 0 to Array.length entries - 1 do
    let e = entries.(i) in
    let home = t.homes.(e.array) in
    t.s_access_stall <- t.s_access_stall + e.alt.stall.(home);
    t.sums.(0) <- t.sums.(0) +. e.alt.energy.(home)
  done;
  t.folded <- Array.length entries;
  t.generation <- t.generation + 1;
  let gen = t.generation in
  for i = 0 to Array.length entries - 1 do
    let e = entries.(i) in
    let bts = e.alt.bts.(t.homes.(e.array)) in
    for k = 0 to Array.length bts - 1 do
      let c = bts.(k) in
      if t.stamps.(c.key_id) <> gen then begin
        t.stamps.(c.key_id) <- gen;
        add_bt t c
      end
    done
  done;
  for k = 0 to t.n_order - 1 do
    let id = t.order.(k) in
    let bts = promoted t id t.homes.(id) in
    for j = 0 to Array.length bts - 1 do
      add_bt t bts.(j)
    done
  done

let total_cycles t = t.compute + t.s_access_stall + t.s_stall + t.s_setup

let total_energy t = t.sums.(0) +. t.sums.(1) +. t.sums.(2)

(* --- incremental feasibility ------------------------------------------ *)

(* Add ([sign] = 1) or remove ([-1]) the block [lo, hi) x [bytes] on
   [level], keeping [over] exact. *)
let charge occ level sign lo hi bytes =
  match occ.profiles.(level) with
  | None -> ()
  | Some { capacity; load } ->
    let w = sign * bytes in
    for s = lo to hi - 1 do
      let before = load.(s) > capacity in
      load.(s) <- load.(s) + w;
      let after = load.(s) > capacity in
      if after && not before then occ.over <- occ.over + 1
      else if before && not after then occ.over <- occ.over - 1
    done

(* [Interval.hull] folded into the accumulator: an empty lifetime
   yields to any non-empty one. *)
let fold_sharer occ (s : sharer) =
  if not occ.f_on then begin
    occ.f_on <- true;
    occ.f_lo <- s.lo;
    occ.f_hi <- s.hi;
    occ.f_bytes <- s.bytes
  end
  else begin
    if occ.f_lo = occ.f_hi then begin
      occ.f_lo <- s.lo;
      occ.f_hi <- s.hi
    end
    else if s.lo <> s.hi then begin
      occ.f_lo <- min occ.f_lo s.lo;
      occ.f_hi <- max occ.f_hi s.hi
    end;
    occ.f_bytes <- max occ.f_bytes s.bytes
  end

(* The sharer a lookup that finds none returns. *)
let no_sharer = { entry = -1; lo = 0; hi = 0; bytes = 0 }

(* Fold [sharers] with entry [i]'s own sharer replaced by [joined]
   ([no_sharer]: [i] leaves the group), kept in entry order. *)
let rec fold_sharers occ i joined = function
  | [] -> if joined != no_sharer then fold_sharer occ joined
  | (s : sharer) :: rest ->
    if s.entry = i then fold_sharers occ i joined rest
    else if s.entry > i && joined != no_sharer then begin
      fold_sharer occ joined;
      fold_sharer occ s;
      fold_sharers occ i no_sharer rest
    end
    else begin
      fold_sharer occ s;
      fold_sharers occ i joined rest
    end

(* The sharer alternative [a] adds to group [g], if it joins it. *)
let rec joined_sharer_from (a : alt) g k =
  if k = Array.length a.groups then no_sharer
  else if a.groups.(k) == g then a.sharers.(k)
  else joined_sharer_from a g (k + 1)

let joined_sharer a g = joined_sharer_from a g 0

(* Stage the block group [aff.(k)] would charge once entry [i] moves to
   [a], as [Mapping.layer_blocks] merges it (hull folded in placements
   order, largest footprint), widened as [Occupancy.peak_bytes] widens
   an empty lifetime. *)
let stage_group occ i a k =
  let g = occ.aff.(k) in
  occ.f_on <- false;
  fold_sharers occ i (joined_sharer a g) g.sharers;
  occ.n_on.(k) <- occ.f_on;
  if occ.f_on then
    match occ.policy with
    | Occupancy.Sum ->
      occ.n_lo.(k) <- 0;
      occ.n_hi.(k) <- 1;
      occ.n_bytes.(k) <- occ.f_bytes
    | Occupancy.In_place ->
      occ.n_lo.(k) <- occ.f_lo;
      occ.n_hi.(k) <-
        (if occ.f_lo = occ.f_hi then occ.f_lo + 1 else occ.f_hi);
      occ.n_bytes.(k) <- occ.f_bytes

let rec affected occ g k =
  k < occ.n_aff && (occ.aff.(k) == g || affected occ g (k + 1))

let add_affected occ g =
  if not (affected occ g 0) then begin
    occ.aff.(occ.n_aff) <- g;
    occ.n_aff <- occ.n_aff + 1
  end

(* Every group entry [i] leaves or joins moving from [from] to [a],
   with the block each would charge. *)
let stage_placement occ i ~(from : alt) (a : alt) =
  occ.n_aff <- 0;
  for k = 0 to Array.length from.groups - 1 do
    add_affected occ from.groups.(k)
  done;
  for k = 0 to Array.length a.groups - 1 do
    add_affected occ a.groups.(k)
  done;
  for k = 0 to occ.n_aff - 1 do
    stage_group occ i a k
  done

let staged_changes occ k =
  let g = occ.aff.(k) in
  occ.n_on.(k) <> g.c_on
  || occ.n_on.(k)
     && (occ.n_lo.(k) <> g.c_lo
        || occ.n_hi.(k) <> g.c_hi
        || occ.n_bytes.(k) <> g.c_bytes)

(* [sign] = 1 swaps every changed group's charged block for its staged
   one; [-1] swaps them back. *)
let apply_staged occ sign =
  for k = 0 to occ.n_aff - 1 do
    if staged_changes occ k then begin
      let g = occ.aff.(k) in
      if g.c_on then charge occ g.level (-sign) g.c_lo g.c_hi g.c_bytes;
      if occ.n_on.(k) then
        charge occ g.level sign occ.n_lo.(k) occ.n_hi.(k) occ.n_bytes.(k)
    end
  done

(* Install the staged blocks and the sharer lists behind them. *)
let install_staged occ i a =
  for k = 0 to occ.n_aff - 1 do
    let g = occ.aff.(k) in
    let kept = List.filter (fun (s : sharer) -> s.entry <> i) g.sharers in
    g.sharers <-
      (let sharer = joined_sharer a g in
       if sharer == no_sharer then kept
       else
         let rec insert = function
           | (s : sharer) :: rest when s.entry < i -> s :: insert rest
           | rest -> sharer :: rest
         in
         insert kept);
    g.c_on <- occ.n_on.(k);
    g.c_lo <- occ.n_lo.(k);
    g.c_hi <- occ.n_hi.(k);
    g.c_bytes <- occ.n_bytes.(k)
  done

let group_of occ ~key ~level =
  match Hashtbl.find_opt occ.groups (key, level) with
  | Some g -> g
  | None ->
    let g =
      { level; sharers = []; c_on = false; c_lo = 0; c_hi = 0; c_bytes = 0 }
    in
    Hashtbl.replace occ.groups (key, level) g;
    g

let ensure_scratch occ n g =
  if Array.length occ.aff < n then begin
    let grow a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    occ.aff <- grow occ.aff g;
    occ.n_on <- grow occ.n_on false;
    occ.n_lo <- grow occ.n_lo 0;
    occ.n_hi <- grow occ.n_hi 0;
    occ.n_bytes <- grow occ.n_bytes 0
  end

(* --- compiled alternatives -------------------------------------------- *)

let compile t i p =
  let occ = t.occ in
  let links =
    match p with Mapping.Direct -> [] | Mapping.Chain links -> links
  in
  let joins =
    List.filter_map
      (fun (link : Mapping.chain_link) ->
        let level = link.Mapping.layer in
        Option.map
          (fun _ ->
            let c = link.Mapping.candidate in
            let iv = Schedule.candidate_interval occ.schedule c in
            ( group_of occ ~key:c.Candidate.share_key ~level,
              {
                entry = i;
                lo = iv.Interval.lo;
                hi = iv.Interval.hi;
                bytes = c.Candidate.footprint_bytes;
              } ))
          occ.profiles.(level))
      links
  in
  let groups = Array.of_list (List.map fst joins) in
  if Array.length groups > 0 then
    ensure_scratch occ (2 * Array.length groups) groups.(0);
  {
    placement = p;
    groups;
    sharers = Array.of_list (List.map snd joins);
    known = Array.make t.levels false;
    stall = Array.make t.levels 0;
    energy = Array.make t.levels 0.;
    bts = Array.make t.levels [||];
  }

let rec find_alt p = function
  | [] -> no_alt
  | a :: rest -> if a.placement == p then a else find_alt p rest

(* The compiled record of placement [p] for entry [i]: [==] is exact
   for [Direct] (an immediate) and sound for chains — a physically-equal
   chain trivially has equal candidates and layers. A distinct but
   structurally equal chain misses and compiles a record of its own,
   with the same contents. *)
let alt_of t i p =
  let e = t.entries.(i) in
  match find_alt p e.cache with
  | a when a != no_alt -> a
  | _ ->
    let a = compile t i p in
    if e.cached >= alt_cap then
      e.cache <- a :: List.filteri (fun k _ -> k < alt_cap - 1) e.cache
    else begin
      e.cache <- a :: e.cache;
      e.cached <- e.cached + 1
    end;
    a

let index_of t r =
  if r == t.last_ref then t.last_index
  else begin
    let i = Hashtbl.find t.index r in
    t.last_ref <- r;
    t.last_index <- i;
    i
  end

let array_id t array = Hashtbl.find t.array_ids array

(* --- moves ------------------------------------------------------------- *)

(* Move array [id] to [target] in [order]/[homes]: out of the order,
   then to its front when promoted. *)
let rec order_position t id k =
  if k = t.n_order || t.order.(k) = id then k else order_position t id (k + 1)

let move_array t id target =
  let at = order_position t id 0 in
  if at < t.n_order then begin
    Array.blit t.order (at + 1) t.order at (t.n_order - at - 1);
    t.n_order <- t.n_order - 1
  end;
  (match target with
  | None -> ()
  | Some _ ->
    Array.blit t.order 0 t.order 1 t.n_order;
    t.order.(0) <- id;
    t.n_order <- t.n_order + 1);
  t.homes.(id) <- Option.value target ~default:t.main

(* A [Set_array] moves the home of every access of the array: Direct
   ones follow it, chained ones refill from it. *)
let invalidate t id =
  let dirty = t.arrays.(id).dirty in
  t.counters.n_invalidated <- t.counters.n_invalidated + Array.length dirty;
  Telemetry.count t.telemetry ~cat:"engine" "engine.entries_invalidated"
    (Array.length dirty);
  for k = 0 to Array.length dirty - 1 do
    refresh t dirty.(k)
  done

(* The objective after folding [move] into the accumulators; the
   engine's position is restored before returning. *)
let probe_fold t move =
  match move with
  | Set_placement (r, p) ->
    let i = index_of t r in
    let e = t.entries.(i) in
    let saved = e.alt in
    e.alt <- alt_of t i p;
    refresh t i;
    fold t;
    e.alt <- saved
  | Set_array (array, target) ->
    let id = array_id t array in
    let home = t.homes.(id) in
    let n = t.n_order in
    Array.blit t.order 0 t.saved_order 0 n;
    move_array t id target;
    invalidate t id;
    fold t;
    Array.blit t.saved_order 0 t.order 0 n;
    t.n_order <- n;
    t.homes.(id) <- home

(* The charges of a [Set_array]: the array's block off its current
   level (when on-chip) and onto the target's. *)
let charge_array t id target sign =
  let st = t.arrays.(id) in
  let home = t.homes.(id) in
  if home <> t.main then charge t.occ home (-sign) st.a_lo st.a_hi st.a_bytes;
  match target with
  | Some level -> charge t.occ level sign st.a_lo st.a_hi st.a_bytes
  | None -> ()

(* Move entry [i] onto its compiled alternative [a], occupancy
   included. *)
let install t i a =
  let e = t.entries.(i) in
  stage_placement t.occ i ~from:e.alt a;
  apply_staged t.occ 1;
  install_staged t.occ i a;
  e.alt <- a

let feasible t move =
  let occ = t.occ in
  match move with
  | Set_placement (r, p) ->
    let i = index_of t r in
    stage_placement occ i ~from:t.entries.(i).alt (alt_of t i p);
    apply_staged occ 1;
    let ok = occ.over = 0 in
    apply_staged occ (-1);
    ok
  | Set_array (array, target) ->
    let id = array_id t array in
    charge_array t id target 1;
    let ok = occ.over = 0 in
    charge_array t id target (-1);
    ok

let span_bounds policy (iv : Interval.t) =
  match policy with
  | Occupancy.Sum -> (0, 1)
  | Occupancy.In_place ->
    let lo = iv.Interval.lo in
    (lo, if Interval.is_empty iv then lo + 1 else iv.Interval.hi)

let create ?(telemetry = Telemetry.noop) ?(policy = Occupancy.In_place)
    ~objective (m : Mapping.t) =
  let h = m.Mapping.hierarchy in
  let schedule = m.Mapping.schedule in
  let main = Hierarchy.main_memory_level h in
  let levels = Hierarchy.levels h in
  let slots =
    match policy with
    | Occupancy.Sum -> 1
    | Occupancy.In_place -> Schedule.horizon schedule + 1
  in
  let decls = m.Mapping.program.Mhla_ir.Program.arrays in
  let array_ids = Hashtbl.create 16 in
  List.iteri
    (fun id (d : Mhla_ir.Array_decl.t) ->
      Hashtbl.replace array_ids d.Mhla_ir.Array_decl.name id)
    decls;
  let infos = Array.of_list m.Mapping.infos in
  let entries =
    Array.map
      (fun (info : Analysis.info) ->
        {
          info;
          array = Hashtbl.find array_ids info.Analysis.array;
          alt = no_alt;
          cache = [];
          cached = 0;
        })
      infos
  in
  let arrays =
    Array.of_list
      (List.mapi
         (fun id (d : Mhla_ir.Array_decl.t) ->
           let name = d.Mhla_ir.Array_decl.name in
           let a_lo, a_hi =
             span_bounds policy (Schedule.array_interval schedule name)
           in
           {
             name;
             a_lo;
             a_hi;
             a_bytes = Mhla_ir.Array_decl.size_bytes d;
             dirty =
               Array.of_list
                 (List.filter
                    (fun i -> entries.(i).array = id)
                    (List.init (Array.length entries) Fun.id));
             promoted = Array.make levels None;
           })
         decls)
  in
  let index = Hashtbl.create (Array.length entries) in
  Array.iteri
    (fun i e -> Hashtbl.replace index e.info.Analysis.ref_ i)
    entries;
  let n_arrays = Array.length arrays in
  let homes = Array.make n_arrays main in
  let order = Array.make n_arrays 0 in
  List.iteri
    (fun k (array, level) ->
      let id = Hashtbl.find array_ids array in
      homes.(id) <- level;
      order.(k) <- id)
    m.Mapping.array_layers;
  Telemetry.span telemetry ~cat:"engine" "engine.create" @@ fun () ->
  let t =
    {
      objective;
      mapping = m;
      entries;
      index;
      last_ref = { Analysis.stmt = ""; index = -1 };
      last_index = -1;
      arrays;
      array_ids;
      homes;
      order;
      n_order = List.length m.Mapping.array_layers;
      saved_order = Array.make n_arrays 0;
      key_ids = Hashtbl.create 16;
      stamps = Array.make 16 0;
      generation = 0;
      s_access_stall = 0;
      s_stall = 0;
      s_setup = 0;
      sums = Array.make 3 0.;
      folded = 0;
      main;
      levels;
      dma = (if Hierarchy.has_dma h then Some (Hierarchy.dma_exn h) else None);
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
      occ =
        {
          policy;
          schedule;
          profiles =
            Array.init levels (fun level ->
                if level = main then None
                else
                  Option.map
                    (fun capacity -> { capacity; load = Array.make slots 0 })
                    (Hierarchy.layer h level).Mhla_arch.Layer.capacity_bytes);
          groups = Hashtbl.create 64;
          over = 0 (* capacities are positive: empty profiles fit *);
          aff = [||];
          n_aff = 0;
          n_on = [||];
          n_lo = [||];
          n_hi = [||];
          n_bytes = [||];
          f_on = false;
          f_lo = 0;
          f_hi = 0;
          f_bytes = 0;
        };
    }
  in
  (* Entries join their groups in entry order, as [Mapping.layer_blocks]
     meets them. *)
  Array.iteri
    (fun i (e : entry) ->
      install t i (alt_of t i (Mapping.placement_of m e.info.Analysis.ref_)))
    entries;
  for k = 0 to t.n_order - 1 do
    let st = arrays.(order.(k)) in
    charge t.occ homes.(order.(k)) 1 st.a_lo st.a_hi st.a_bytes
  done;
  Array.iteri (fun i _ -> refresh t i) entries;
  t

let mapping t = t.mapping

let breakdown t =
  fold t;
  {
    Cost.compute_cycles = t.compute;
    access_stall_cycles = t.s_access_stall;
    transfer_stall_cycles = t.s_stall;
    dma_setup_cycles = t.s_setup;
    total_cycles = total_cycles t;
    access_energy_pj = t.sums.(0);
    transfer_energy_pj = t.sums.(1);
    dma_energy_pj = t.sums.(2);
    total_energy_pj = total_energy t;
  }

let objective_value t = Cost.scalar t.objective (breakdown t)

let move_kind = function
  | Set_placement _ -> "set_placement"
  | Set_array _ -> "set_array"

let probe_value t move =
  t.counters.n_probes <- t.counters.n_probes + 1;
  let before = t.counters.n_recomputed in
  probe_fold t move;
  let recomputed = t.counters.n_recomputed - before in
  let reused = max 0 (t.folded - recomputed) in
  t.counters.n_reused <- t.counters.n_reused + reused;
  if Telemetry.enabled t.telemetry then begin
    Telemetry.count t.telemetry ~cat:"engine" "engine.probes" 1;
    Telemetry.count t.telemetry ~cat:"engine" "engine.cache_hits" reused;
    Telemetry.count t.telemetry ~cat:"engine" "engine.cache_misses" recomputed
  end;
  Cost.scalar_of t.objective ~total_cycles:(total_cycles t)
    ~total_energy_pj:(total_energy t)

(* The span (and its closures) only exists for an enabled sink. *)
let probe t move =
  if Telemetry.enabled t.telemetry then
    Telemetry.span t.telemetry ~cat:"engine" "engine.probe"
      ~args:(fun () -> [ ("move", Telemetry.Str (move_kind move)) ])
      (fun () -> probe_value t move)
  else probe_value t move

let commit t move =
  Telemetry.span t.telemetry ~cat:"engine" "engine.commit"
    ~args:(fun () -> [ ("move", Telemetry.Str (move_kind move)) ])
    (fun () ->
      (* Validate through the real [Mapping] update first: if it rejects
         the move we raise before any cached state is dirtied. *)
      (match move with
      | Set_placement (r, p) ->
        let mapping' = Mapping.with_placement t.mapping r p in
        let i = index_of t r in
        install t i (alt_of t i p);
        t.mapping <- mapping';
        refresh t i
      | Set_array (array, target) ->
        let mapping' =
          Mapping.with_array_layer t.mapping ~array ~layer:target
        in
        let id = array_id t array in
        charge_array t id target 1;
        move_array t id target;
        t.mapping <- mapping';
        invalidate t id);
      t.counters.n_commits <- t.counters.n_commits + 1;
      Telemetry.count t.telemetry ~cat:"engine" "engine.commits" 1)

let compiled_cap = alt_cap

let compiled t r = t.entries.(index_of t r).cached

let stats t =
  {
    probes = t.counters.n_probes;
    commits = t.counters.n_commits;
    contribs_reused = t.counters.n_reused;
    contribs_recomputed = t.counters.n_recomputed;
    entries_invalidated = t.counters.n_invalidated;
  }
