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
  feasible_staged : int;
}

(* One block transfer and its cached contribution, exactly the tuple
   [Cost.bt_contribution] returns (hidden = 0: the searches never
   overlap transfers — that is TE's job, after assignment). The
   transfer and its dedupe key depend on no capacity, so both are kept
   for the engine's life: the key is interned to a dense int id once,
   and the totals fold dedupes with a generation-stamped array instead
   of hashing keys per probe. The contribution is re-derived in place
   once per seat (see [seat]). Its two energies sit in an all-float
   record, which OCaml stores unboxed, so a derivation stores no fresh
   float into a record that has outlived the minor heap. *)
type energies = { mutable c_energy : float; mutable c_dma : float }

type cached_bt = {
  key_id : int;
  bt : Mapping.block_transfer;
  mutable c_stall : int;
  mutable c_setup : int;
  c_pj : energies;
}

(* --- occupancy state ----------------------------------------------------

   [Mapping.occupancy_ok] rebuilds every layer's blocks and re-sweeps
   them; here each capacity-bound level keeps a per-slot byte profile
   (one slot under [Sum], where lifetimes do not matter) and the engine
   counts the slots over capacity. A move re-derives only the blocks it
   touches and rewrites only their slots. [peak] is the largest slot
   load as of the last seat or commit; a check's stage and unstage
   leave every load as it was, so only those two refresh it. *)

type profile = { mutable capacity : int; load : int array; mutable peak : int }

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
   or a probe needs, derived once and reused every round after, and
   every seat after. An entry keeps its [Direct] record; a chain's
   lives in the handle that named it (see [resolve]).

   - [groups]/[sharers]: one slot per chain link held on a
     capacity-bound level, link order — the share groups this placement
     joins and the buffer it adds to each.
   - the cost terms by home level (the level holding the entry's
     array): the access contribution and the chain transfers, which
     depend on the home only through a [Direct] access's serving layer
     and the outermost link's source. The transfers of a home are
     derived on its first use; the terms on the first use at each seat
     ([known] holds the seat they were derived at). *)
type alt = {
  placement : Mapping.placement;
  groups : group array;
  sharers : sharer array;
  known : int array;
  stall : int array;
  energy : float array;
  bts : cached_bt array array;  (* [||] until derived: a chain has some *)
}

type entry = {
  info : Analysis.info;
  array : int;  (* array id *)
  direct : alt;  (* the compiled [Direct] placement *)
  mutable alt : alt;  (* the compiled current placement *)
}

(* A move resolved once: its entry and the compiled record of its
   placement, or its array's id and target level. A compiled record
   and an entry index outlive every seat, so a handle is good for the
   engine's life. *)
type handle =
  | Entry_alt of int * alt
  | Array_target of int * int option

type occ = {
  policy : Occupancy.policy;
  schedule : Schedule.t;
  profiles : profile option array;  (* by level; [None] = unbounded *)
  groups : (string * int, group) Hashtbl.t;  (* by (share_key, level) *)
  mutable over : int;  (* slots over capacity, all levels *)
  (* Whether some compiled sharer has an empty lifetime: only such a
     sharer, left alone in its group, is widened onto a slot its group
     did not cover (see [peak_fits]). *)
  mutable empty_sharer : bool;
  (* By level: a check's bound on the bytes a move adds to any one slot
     (see [peak_fits]); zero between checks. *)
  gain : int array;
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
   home moves, and its fill/drain streams per level, derived on first
   use, with the seat their terms were derived at. *)
type array_state = {
  name : string;
  a_lo : int;
  a_hi : int;
  a_bytes : int;
  dirty : int array;
  promoted : cached_bt array option array;  (* by level *)
  p_known : int array;  (* by level *)
}

type counters = {
  mutable n_probes : int;
  mutable n_commits : int;
  mutable n_reused : int;
  mutable n_recomputed : int;
  mutable n_invalidated : int;
  mutable n_staged : int;
}

type t = {
  objective : Cost.objective;
  (* The mapping the engine was last seated on. Every cost term is
     derived from its program, hierarchy, transfer mode and infos, which
     no move changes; its placements and promoted arrays are the start
     position's only. *)
  mutable base : Mapping.t;
  (* Bumped by every seat: a cost term stamped with an older seat was
     derived against another hierarchy and is derived again. *)
  mutable seated : int;
  (* The current position's mapping, once [mapping] has built it;
     [None] after a commit. *)
  mutable built : Mapping.t option;
  entries : entry array;  (* in [base.infos] order *)
  index : (Analysis.access_ref, int) Hashtbl.t;
  arrays : array_state array;
  array_ids : (string, int) Hashtbl.t;
  homes : int array;  (* by array id: the level holding it *)
  (* The promoted arrays in [array_layers] order, kept with the
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
  mutable dma : Mhla_arch.Dma.t option;
  compute : int;
  counters : counters;
  mutable telemetry : Telemetry.t;
  occ : occ;
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

let cached_bts t bts =
  Array.of_list
    (List.map
       (fun bt ->
         {
           key_id = intern_key t (Mapping.bt_dedupe_key bt);
           bt;
           c_stall = 0;
           c_setup = 0;
           c_pj = { c_energy = 0.; c_dma = 0. };
         })
       bts)

(* Derive [c]'s contribution on the current seat's hierarchy. *)
let derive t c =
  let stall, setup, energy, dma =
    Cost.bt_contribution ~dma:t.dma t.base c.bt
  in
  c.c_stall <- stall;
  c.c_setup <- setup;
  c.c_pj.c_energy <- energy;
  c.c_pj.c_dma <- dma;
  t.counters.n_recomputed <- t.counters.n_recomputed + 1

(* Derive [a]'s cost terms for an entry whose array sits on [home],
   unless an earlier probe at this seat already did. *)
let ensure_terms t (e : entry) a home =
  if a.known.(home) <> t.seated then begin
    let level =
      match a.placement with
      | Mapping.Direct -> home
      | Mapping.Chain (link :: _) -> link.Mapping.layer
      | Mapping.Chain [] -> assert false
    in
    let stall, energy = Cost.access_contribution t.base ~level e.info in
    a.stall.(home) <- stall;
    a.energy.(home) <- energy;
    t.counters.n_recomputed <- t.counters.n_recomputed + 1;
    (match a.placement with
    | Mapping.Direct -> ()
    | Mapping.Chain links ->
      if Array.length a.bts.(home) = 0 then
        a.bts.(home) <-
          cached_bts t
            (Mapping.transfers_of_chain
               ~transfer_mode:t.base.Mapping.transfer_mode ~home links);
      let bts = a.bts.(home) in
      for k = 0 to Array.length bts - 1 do
        derive t bts.(k)
      done);
    a.known.(home) <- t.seated
  end

let refresh t i =
  let e = t.entries.(i) in
  ensure_terms t e e.alt t.homes.(e.array)

let promoted t id level =
  let st = t.arrays.(id) in
  let bts =
    match st.promoted.(level) with
    | Some bts -> bts
    | None ->
      let bts =
        cached_bts t (Mapping.promoted_transfers t.base ~array:st.name ~level)
      in
      st.promoted.(level) <- Some bts;
      bts
  in
  if st.p_known.(level) <> t.seated then begin
    for k = 0 to Array.length bts - 1 do
      derive t bts.(k)
    done;
    st.p_known.(level) <- t.seated
  end;
  bts

let add_bt t c =
  t.s_stall <- t.s_stall + c.c_stall;
  t.s_setup <- t.s_setup + c.c_setup;
  t.sums.(1) <- t.sums.(1) +. c.c_pj.c_energy;
  t.sums.(2) <- t.sums.(2) +. c.c_pj.c_dma;
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

let[@inline] total_cycles t =
  t.compute + t.s_access_stall + t.s_stall + t.s_setup

let[@inline] total_energy t = t.sums.(0) +. t.sums.(1) +. t.sums.(2)

(* --- incremental feasibility ------------------------------------------ *)

(* Add ([sign] = 1) or remove ([-1]) the block [lo, hi) x [bytes] on
   [level], keeping [over] exact. *)
let charge occ level sign lo hi bytes =
  match occ.profiles.(level) with
  | None -> ()
  | Some { capacity; load; _ } ->
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

let refresh_peaks occ =
  Array.iter
    (function
      | None -> ()
      | Some p -> p.peak <- Array.fold_left max 0 p.load)
    occ.profiles

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

let record ~levels p ~groups ~sharers =
  {
    placement = p;
    groups;
    sharers;
    known = Array.make levels 0;
    stall = Array.make levels 0;
    energy = Array.make levels 0.;
    bts = Array.make levels [||];
  }

(* Chain placement [links] of entry [i], compiled afresh. *)
let compile t i p links =
  let occ = t.occ in
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
  let sharers = Array.of_list (List.map snd joins) in
  if Array.exists (fun (s : sharer) -> s.lo = s.hi) sharers then
    occ.empty_sharer <- true;
  record ~levels:t.levels p ~groups ~sharers

(* The compiled record of placement [p] for entry [i]: the entry's own
   for [Direct], a fresh one for a chain. *)
let alt_of t i = function
  | Mapping.Direct -> t.entries.(i).direct
  | Mapping.Chain links as p -> compile t i p links

let index_of t r = Hashtbl.find t.index r

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

(* Fold the totals with entry [i] on its compiled alternative [a], or
   array [id] on [target]; the engine's position is restored before
   returning. *)
let fold_placement t i a =
  let e = t.entries.(i) in
  let saved = e.alt in
  e.alt <- a;
  refresh t i;
  fold t;
  e.alt <- saved

let fold_array t id target =
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

(* --- feasibility shortcuts ------------------------------------------------

   Most checks are decided without staging a block. Loads are never
   negative, so a block larger than its level's capacity overflows the
   slots it covers whatever else the level holds: a placement with such
   a sharer (its group's block is at least that large) is infeasible.
   And while no slot is over ([over] = 0), a move fits if, on every
   level, the peak load plus an upper bound on what the move adds to
   any one slot fits. A group's block is the hull of its sharers'
   lifetimes at their largest footprint, so the bound is per group, not
   per sharer: a group the move joins charges at most
   [max c_bytes own.bytes] on any slot of its new hull (a small sharer
   that widens the hull adds the group's largest footprint to the newly
   covered slots); a group it only leaves charges at most [c_bytes],
   possibly on other slots (an empty-lifetime sharer left alone is
   widened where it sits). A [Set_array] is bounded the same way by
   its array's block on the target level. Whatever the two shortcuts
   leave undecided is staged. *)

let bytes_over occ level bytes =
  match occ.profiles.(level) with
  | Some p -> bytes > p.capacity
  | None -> false

let rec oversized occ (a : alt) k =
  k < Array.length a.groups
  && (bytes_over occ a.groups.(k).level a.sharers.(k).bytes
     || oversized occ a (k + 1))

let add_gain occ level bytes = occ.gain.(level) <- occ.gain.(level) + bytes

(* Whether [level]'s peak slot holds [bytes] more. *)
let peak_room occ level bytes =
  match occ.profiles.(level) with
  | Some p -> p.peak + bytes <= p.capacity
  | None -> true

(* Whether [level]'s peak slot holds its gain; clears the gain. *)
let level_fits occ level =
  let gain = occ.gain.(level) in
  occ.gain.(level) <- 0;
  peak_room occ level gain

(* The accept bound for moving an entry from [from] to [a], at a
   position with no slot over. A group the move only leaves gains
   nothing unless some compiled sharer has an empty lifetime. *)
let peak_fits occ ~(from : alt) (a : alt) =
  for k = 0 to Array.length a.groups - 1 do
    let g = a.groups.(k) in
    add_gain occ g.level (max g.c_bytes a.sharers.(k).bytes)
  done;
  let leaves = occ.empty_sharer in
  if leaves then
    for k = 0 to Array.length from.groups - 1 do
      let g = from.groups.(k) in
      if joined_sharer a g == no_sharer then add_gain occ g.level g.c_bytes
    done;
  let ok = ref true in
  for k = 0 to Array.length a.groups - 1 do
    if not (level_fits occ a.groups.(k).level) then ok := false
  done;
  if leaves then
    for k = 0 to Array.length from.groups - 1 do
      if not (level_fits occ from.groups.(k).level) then ok := false
    done;
  !ok

(* Whether entry [i] fits on its compiled alternative [a]. *)
let feasible_placement t i a =
  let occ = t.occ in
  let from = t.entries.(i).alt in
  if oversized occ a 0 then false
  else if occ.over = 0 && peak_fits occ ~from a then true
  else begin
    t.counters.n_staged <- t.counters.n_staged + 1;
    stage_placement occ i ~from a;
    apply_staged occ 1;
    let ok = occ.over = 0 in
    apply_staged occ (-1);
    ok
  end

(* Whether array [id] fits on [target]. *)
let feasible_array t id target =
  let occ = t.occ in
  let bytes = t.arrays.(id).a_bytes in
  let level = Option.value target ~default:t.main in
  if bytes_over occ level bytes then false
  else if occ.over = 0 && peak_room occ level bytes then true
  else begin
    t.counters.n_staged <- t.counters.n_staged + 1;
    charge_array t id target 1;
    let ok = occ.over = 0 in
    charge_array t id target (-1);
    ok
  end

let feasible t = function
  | Entry_alt (i, a) -> feasible_placement t i a
  | Array_target (id, target) -> feasible_array t id target

(* Both checks read only the program and the hierarchy's shape, which
   every seat keeps, so a handle that passes them once stays valid. *)
let resolve t = function
  | Set_placement (r, p) ->
    Mapping.check_placement t.base r p;
    let i = index_of t r in
    Entry_alt (i, alt_of t i p)
  | Set_array (array, layer) ->
    Mapping.check_array_layer t.base ~array ~layer;
    Array_target (array_id t array, layer)

let span_bounds policy (iv : Interval.t) =
  match policy with
  | Occupancy.Sum -> (0, 1)
  | Occupancy.In_place ->
    let lo = iv.Interval.lo in
    (lo, if Interval.is_empty iv then lo + 1 else iv.Interval.hi)

let capacity h level = (Hierarchy.layer h level).Mhla_arch.Layer.capacity_bytes

(* Everything of an engine that depends only on the program, its reuse
   analysis, the transfer mode, the sizing policy and the shape of the
   hierarchy (its levels, and which of them are capacity-bound): the
   entries and their index, the array states, the share groups and the
   key table. A seat fills in the rest. *)
let build ~objective (m : Mapping.t) =
  let policy = m.Mapping.policy in
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
        let direct =
          record ~levels Mapping.Direct ~groups:[||] ~sharers:[||]
        in
        {
          info;
          array = Hashtbl.find array_ids info.Analysis.array;
          direct;
          alt = direct;
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
             p_known = Array.make levels 0;
           })
         decls)
  in
  let index = Hashtbl.create (Array.length entries) in
  Array.iteri
    (fun i e -> Hashtbl.replace index e.info.Analysis.ref_ i)
    entries;
  let n_arrays = Array.length arrays in
  {
    objective;
    base = m;
    seated = 0;
    built = None;
    entries;
    index;
    arrays;
    array_ids;
    homes = Array.make n_arrays main;
    order = Array.make n_arrays 0;
    n_order = 0;
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
    dma = None;
    compute = Mhla_ir.Program.total_work_cycles m.Mapping.program;
    counters =
      {
        n_probes = 0;
        n_commits = 0;
        n_reused = 0;
        n_recomputed = 0;
        n_invalidated = 0;
        n_staged = 0;
      };
    telemetry = Telemetry.noop;
    occ =
      {
        policy;
        schedule;
        profiles =
          Array.init levels (fun level ->
              if level = main then None
              else
                Option.map
                  (fun capacity ->
                    { capacity; load = Array.make slots 0; peak = 0 })
                  (capacity h level));
        groups = Hashtbl.create 64;
        over = 0;
        empty_sharer = false;
        gain = Array.make levels 0;
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

let compatible t (m : Mapping.t) =
  let b = t.base in
  m.Mapping.program == b.Mapping.program
  && m.Mapping.infos == b.Mapping.infos
  && m.Mapping.schedule == b.Mapping.schedule
  && m.Mapping.transfer_mode = b.Mapping.transfer_mode
  && m.Mapping.policy = b.Mapping.policy
  && Hierarchy.levels m.Mapping.hierarchy = t.levels
  &&
  let rec bounded_alike level =
    level = t.levels
    || (level = t.main
       || Option.is_some t.occ.profiles.(level)
          = Option.is_some (capacity m.Mapping.hierarchy level))
       && bounded_alike (level + 1)
  in
  bounded_alike 0

(* Position the engine on [m] as if it had just been built for it: the
   level profiles take [m]'s capacities and no load, every group and
   entry is emptied, the homes and the promotion order are [m]'s, the
   counters restart, and bumping [seated] marks every cost term stale,
   so each is derived again, by the same functions, the first time a
   fold needs it. The compiled alternatives, the transfers and their
   key ids carry over; a chain of [m] is compiled afresh. *)
let seat ~telemetry t (m : Mapping.t) =
  t.telemetry <- telemetry;
  Telemetry.span telemetry ~cat:"engine" "engine.create" @@ fun () ->
  let h = m.Mapping.hierarchy in
  t.base <- m;
  t.built <- Some m;
  t.seated <- t.seated + 1;
  t.dma <- (if Hierarchy.has_dma h then Some (Hierarchy.dma_exn h) else None);
  let c = t.counters in
  c.n_probes <- 0;
  c.n_commits <- 0;
  c.n_reused <- 0;
  c.n_recomputed <- 0;
  c.n_invalidated <- 0;
  c.n_staged <- 0;
  let occ = t.occ in
  (* [m]'s bounded levels are the built ones ([compatible]). *)
  Array.iteri
    (fun level -> function
      | None -> ()
      | Some p ->
        Array.fill p.load 0 (Array.length p.load) 0;
        p.capacity <- Option.get (capacity h level))
    occ.profiles;
  occ.over <- 0 (* capacities are positive: empty profiles fit *);
  Hashtbl.iter
    (fun _ (g : group) ->
      g.sharers <- [];
      g.c_on <- false;
      g.c_lo <- 0;
      g.c_hi <- 0;
      g.c_bytes <- 0)
    occ.groups;
  Array.iter (fun e -> e.alt <- e.direct) t.entries;
  Array.fill t.homes 0 (Array.length t.homes) t.main;
  List.iteri
    (fun k (array, level) ->
      let id = array_id t array in
      t.homes.(id) <- level;
      t.order.(k) <- id)
    m.Mapping.array_layers;
  t.n_order <- List.length m.Mapping.array_layers;
  (* Placements are in infos (= entry) order, so entries join their
     groups in the order [Mapping.layer_blocks] meets them. *)
  List.iter
    (fun (r, p) ->
      let i = index_of t r in
      install t i (alt_of t i p))
    m.Mapping.placements;
  for k = 0 to t.n_order - 1 do
    let id = t.order.(k) in
    let st = t.arrays.(id) in
    charge occ t.homes.(id) 1 st.a_lo st.a_hi st.a_bytes
  done;
  refresh_peaks occ;
  Array.iteri (fun i _ -> refresh t i) t.entries

let create ?(telemetry = Telemetry.noop) ~objective m =
  let t = build ~objective m in
  seat ~telemetry t m;
  t

let reseat ?(telemetry = Telemetry.noop) t m =
  if not (compatible t m) then
    invalid_arg "Engine.reseat: mapping of another program or shape";
  seat ~telemetry t m

(* Placements in entry (= infos) order, each the physical placement
   its last commit installed; promoted arrays in [order], the latest
   first. Exactly what the [Mapping.with_placement] /
   [Mapping.with_array_layer] calls of the same commits build. *)
let mapping t =
  match t.built with
  | Some m -> m
  | None ->
    let placements =
      Array.fold_right
        (fun e acc -> (e.info.Analysis.ref_, e.alt.placement) :: acc)
        t.entries []
    in
    let array_layers =
      List.init t.n_order (fun k ->
          let id = t.order.(k) in
          (t.arrays.(id).name, t.homes.(id)))
    in
    let m = Mapping.with_layout t.base ~placements ~array_layers in
    t.built <- Some m;
    m

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

let handle_kind = function
  | Entry_alt _ -> "set_placement"
  | Array_target _ -> "set_array"

let probe_value t h =
  t.counters.n_probes <- t.counters.n_probes + 1;
  let before = t.counters.n_recomputed in
  (match h with
  | Entry_alt (i, a) -> fold_placement t i a
  | Array_target (id, target) -> fold_array t id target);
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
let probe t h =
  if Telemetry.enabled t.telemetry then
    Telemetry.span t.telemetry ~cat:"engine" "engine.probe"
      ~args:(fun () -> [ ("move", Telemetry.Str (handle_kind h)) ])
      (fun () -> probe_value t h)
  else probe_value t h

(* [resolve] validated the move, so nothing here can reject it. *)
let commit t h =
  Telemetry.span t.telemetry ~cat:"engine" "engine.commit"
    ~args:(fun () -> [ ("move", Telemetry.Str (handle_kind h)) ])
    (fun () ->
      (match h with
      | Entry_alt (i, a) ->
        install t i a;
        refresh t i
      | Array_target (id, target) ->
        charge_array t id target 1;
        move_array t id target;
        invalidate t id);
      refresh_peaks t.occ;
      t.built <- None;
      t.counters.n_commits <- t.counters.n_commits + 1;
      Telemetry.count t.telemetry ~cat:"engine" "engine.commits" 1)

let last_cycles = total_cycles

let last_energy = total_energy

let last_terms t = t.folded

let stats t =
  {
    probes = t.counters.n_probes;
    commits = t.counters.n_commits;
    contribs_reused = t.counters.n_reused;
    contribs_recomputed = t.counters.n_recomputed;
    entries_invalidated = t.counters.n_invalidated;
    feasible_staged = t.counters.n_staged;
  }
