module Affine = Mhla_ir.Affine
module Array_decl = Mhla_ir.Array_decl
module Build = Mhla_ir.Build
module Program = Mhla_ir.Program
module Prng = Mhla_util.Prng

type profile = Reuse_rich | Capacity_tight | Te_hostile | Mixed

let all_profiles =
  [
    ("reuse-rich", Reuse_rich);
    ("capacity-tight", Capacity_tight);
    ("te-hostile", Te_hostile);
    ("mixed", Mixed);
  ]

let profile_name = function
  | Reuse_rich -> "reuse-rich"
  | Capacity_tight -> "capacity-tight"
  | Te_hostile -> "te-hostile"
  | Mixed -> "mixed"

(* Size and shape bounds of generated programs. All counts are upper
   bounds; draws are uniform unless the profile biases them. *)
type knobs = {
  max_nests : int;  (* sibling top-level loop nests *)
  max_depth : int;  (* loop-nesting depth per nest *)
  trip_lo : int;
  trip_hi : int;  (* per-loop trip-count range *)
  max_nest_iterations : int;
      (* cap on a nest's product of trips, so the reference interpreter
         stays fast on every generated program *)
  max_arrays : int;
  max_stmts : int;  (* statements per nest *)
  max_accesses : int;  (* accesses per statement *)
  max_coeff : int;  (* subscript coefficient bound *)
  max_offset : int;  (* subscript constant bound *)
  max_work : int;  (* per-statement compute cycles bound *)
  element_bytes : int list;  (* element sizes drawn per array *)
}

let default_knobs =
  {
    max_nests = 2;
    max_depth = 3;
    trip_lo = 2;
    trip_hi = 6;
    max_nest_iterations = 2000;
    max_arrays = 3;
    max_stmts = 3;
    max_accesses = 3;
    max_coeff = 3;
    max_offset = 3;
    max_work = 8;
    element_bytes = [ 1; 2; 4 ];
  }

let knobs_of_profile = function
  | Reuse_rich | Mixed -> default_knobs
  | Capacity_tight ->
    { default_knobs with trip_hi = 10; max_coeff = 4; element_bytes = [ 2; 4 ] }
  | Te_hostile -> { default_knobs with max_depth = 4; trip_hi = 5; max_work = 12 }

type case = {
  seed : int64;
  requested : profile;
  resolved : profile;
  program : Program.t;
  onchip_bytes : int;
}

(* Always consume the die, even for a concrete profile: generating
   with the resolved profile then replays the Mixed case byte for
   byte, so [mhla fuzz --replay] can name the resolved profile. *)
let resolve rng profile =
  let die = Prng.int rng ~bound:3 in
  match profile with
  | Mixed -> (
    match die with 0 -> Reuse_rich | 1 -> Capacity_tight | _ -> Te_hostile)
  | p -> p

(* All coefficients and offsets drawn here are non-negative, so the
   minimum value of every subscript is 0 and the in-bounds guarantee
   reduces to sizing each dimension as [1 + max_value]. *)
let gen_subscript rng ~knobs ~profile ~iters =
  let depth = List.length iters in
  let pick_pos () =
    match profile with
    | Reuse_rich ->
      (* Outer iterators only (when there is more than one loop): the
         innermost loop then re-touches the same elements. *)
      Prng.int rng ~bound:(max 1 (depth - 1))
    | Te_hostile ->
      (* Innermost one or two: dependences at the deepest levels. *)
      depth - 1 - Prng.int rng ~bound:(min 2 depth)
    | Capacity_tight | Mixed -> Prng.int rng ~bound:depth
  in
  let n_terms =
    let n =
      match profile with
      | Reuse_rich -> Prng.int rng ~bound:2
      | _ -> Prng.int_in rng ~lo:0 ~hi:(min 2 depth)
    in
    min n depth
  in
  let offset = Prng.int rng ~bound:(knobs.max_offset + 1) in
  let e = ref (Affine.const offset) in
  for _ = 1 to n_terms do
    let pos = pick_pos () in
    let name = fst (List.nth iters pos) in
    let coeff = 1 + Prng.int rng ~bound:knobs.max_coeff in
    e := Affine.add !e (Affine.var ~coeff name)
  done;
  !e

type spec_access = { target : int; write : bool; index : Affine.t list }

let gen_access rng ~knobs ~profile ~n_arrays ~ranks ~iters =
  let target = Prng.int rng ~bound:n_arrays in
  let write =
    let p = match profile with Te_hostile -> 0.4 | _ -> 0.25 in
    Prng.float rng < p
  in
  let rec dims d =
    if d = ranks.(target) then []
    else
      let e = gen_subscript rng ~knobs ~profile ~iters in
      e :: dims (d + 1)
  in
  { target; write; index = dims 0 }

let gen_stmt rng ~knobs ~profile ~n_arrays ~ranks ~iters ~name =
  let work = 1 + Prng.int rng ~bound:knobs.max_work in
  let n_acc = 1 + Prng.int rng ~bound:knobs.max_accesses in
  let rec accs k =
    if k = n_acc then []
    else
      let a = gen_access rng ~knobs ~profile ~n_arrays ~ranks ~iters in
      a :: accs (k + 1)
  in
  (name, work, accs 0)

(* A statement list for one nest; TE-hostile nests get a guaranteed
   write-then-read chain on array 0 over the outermost iterator, so
   the freedom-loop and DMA-race machinery always has a dependence to
   reason about. *)
let gen_stmts rng ~knobs ~profile ~ranks ~n_arrays ~iters ~nest_id =
  let n_stmts = 1 + Prng.int rng ~bound:knobs.max_stmts in
  let rec go k =
    if k = n_stmts then []
    else
      let name = Printf.sprintf "n%d_s%d" nest_id k in
      let s = gen_stmt rng ~knobs ~profile ~n_arrays ~ranks ~iters ~name in
      s :: go (k + 1)
  in
  let stmts = go 0 in
  match profile with
  | Te_hostile ->
    let outer = fst (List.hd iters) in
    let dep_index rank =
      Affine.var outer :: List.init (rank - 1) (fun _ -> Affine.const 0)
    in
    let chain = { target = 0; write = true; index = dep_index ranks.(0) } in
    let chain_rd = { chain with write = false } in
    let last = List.length stmts - 1 in
    List.mapi
      (fun k (name, work, accs) ->
        let accs = if k = 0 then chain :: accs else accs in
        let accs = if k = last then accs @ [ chain_rd ] else accs in
        (name, work, accs))
      stmts
  | _ -> stmts

let gen_nest rng ~knobs ~profile ~ranks ~n_arrays ~nest_id =
  let depth =
    let d = 1 + Prng.int rng ~bound:knobs.max_depth in
    match profile with Te_hostile -> max (min 2 knobs.max_depth) d | _ -> d
  in
  let product = ref 1 in
  let rec gen_iters k =
    if k = depth then []
    else
      let drawn = Prng.int_in rng ~lo:knobs.trip_lo ~hi:knobs.trip_hi in
      let remaining = max 1 (knobs.max_nest_iterations / !product) in
      let trip = max 2 (min drawn remaining) in
      product := !product * trip;
      let name = Printf.sprintf "n%d_i%d" nest_id k in
      (name, trip) :: gen_iters (k + 1)
  in
  let iters = gen_iters 0 in
  let stmts = gen_stmts rng ~knobs ~profile ~ranks ~n_arrays ~iters ~nest_id in
  (iters, stmts)

let array_name id = Printf.sprintf "a%d" id

let assemble ~seed nests ~ranks ~elt_bytes =
  let trips =
    List.concat_map (fun (iters, _) -> iters) nests
  in
  let trip_of name = List.assoc name trips in
  (* Per used array id, the needed extent of each dimension. *)
  let used = Hashtbl.create 8 in
  List.iter
    (fun (_, stmts) ->
      List.iter
        (fun (_, _, accs) ->
          List.iter
            (fun a ->
              let dims =
                match Hashtbl.find_opt used a.target with
                | Some d -> d
                | None ->
                  let d = Array.make ranks.(a.target) 1 in
                  Hashtbl.add used a.target d;
                  d
              in
              List.iteri
                (fun d e ->
                  let needed = 1 + Affine.max_value e ~trip:trip_of in
                  if needed > dims.(d) then dims.(d) <- needed)
                a.index)
            accs)
        stmts)
    nests;
  let arrays =
    Hashtbl.fold (fun id dims acc -> (id, dims) :: acc) used []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (id, dims) ->
           Build.array
             ~element_bytes:elt_bytes.(id)
             (array_name id) (Array.to_list dims))
  in
  let body =
    List.map
      (fun (iters, stmts) ->
        let stmts =
          List.map
            (fun (name, work, accs) ->
              Build.stmt name ~work
                (List.map
                   (fun a ->
                     let build = if a.write then Build.wr else Build.rd in
                     build (array_name a.target) a.index)
                   accs))
            stmts
        in
        let rec nest_loops = function
          | [] -> assert false
          | [ (iter, trip) ] -> Build.loop iter trip stmts
          | (iter, trip) :: rest -> Build.loop iter trip [ nest_loops rest ]
        in
        nest_loops iters)
      nests
  in
  Build.program (Printf.sprintf "gen_%Lu" seed) ~arrays body

let generate rng ~knobs ~profile ~seed =
  let n_arrays = 1 + Prng.int rng ~bound:knobs.max_arrays in
  let rank_of _ =
    match profile with
    | Capacity_tight -> if Prng.float rng < 0.7 then 2 else 1
    | _ -> 1 + Prng.int rng ~bound:2
  in
  let rec gen_ranks k = if k = n_arrays then [] else
    let r = rank_of k in
    r :: gen_ranks (k + 1)
  in
  let ranks = Array.of_list (gen_ranks 0) in
  let rec gen_elts k = if k = n_arrays then [] else
    let b = Prng.pick rng knobs.element_bytes in
    b :: gen_elts (k + 1)
  in
  let elt_bytes = Array.of_list (gen_elts 0) in
  let n_nests = 1 + Prng.int rng ~bound:knobs.max_nests in
  let rec gen_nests j =
    if j = n_nests then []
    else
      let nest = gen_nest rng ~knobs ~profile ~ranks ~n_arrays ~nest_id:j in
      nest :: gen_nests (j + 1)
  in
  let nests = gen_nests 0 in
  assemble ~seed nests ~ranks ~elt_bytes

let budget_for ~profile (p : Program.t) =
  let total =
    List.fold_left
      (fun acc a -> acc + Array_decl.size_bytes a)
      0 p.Program.arrays
  in
  let pct =
    match profile with
    | Capacity_tight -> 12
    | Te_hostile -> 35
    | Reuse_rich -> 55
    | Mixed -> 40
  in
  max 24 (total * pct / 100)

let case ~profile ~seed () =
  let rng = Prng.create ~seed in
  let resolved = resolve rng profile in
  let knobs = knobs_of_profile resolved in
  let program = generate rng ~knobs ~profile:resolved ~seed in
  {
    seed;
    requested = profile;
    resolved;
    program;
    onchip_bytes = budget_for ~profile:resolved program;
  }
