module Analysis = Mhla_reuse.Analysis
module Candidate = Mhla_reuse.Candidate
module Error = Mhla_util.Error
module Hierarchy = Mhla_arch.Hierarchy
module Occupancy = Mhla_lifetime.Occupancy
module Schedule = Mhla_lifetime.Schedule

type chain_link = { candidate : Candidate.t; layer : int }

type placement = Direct | Chain of chain_link list

type reuse = { infos : Analysis.info list; schedule : Schedule.t }

(* [t] is declared after [reuse] so its [infos]/[schedule] labels win
   unqualified disambiguation throughout the rest of this file. *)
type t = {
  program : Mhla_ir.Program.t;
  hierarchy : Hierarchy.t;
  transfer_mode : Candidate.transfer_mode;
  infos : Analysis.info list;
  placements : (Analysis.access_ref * placement) list;
  array_layers : (string * int) list;
  schedule : Schedule.t;
}

let precompute program : reuse =
  { infos = Analysis.analyze program; schedule = Schedule.of_program program }

let direct ?(transfer_mode = Candidate.Full) ?reuse program hierarchy =
  let ({ infos; schedule } : reuse) =
    match reuse with Some r -> r | None -> precompute program
  in
  {
    program;
    hierarchy;
    transfer_mode;
    infos;
    placements = List.map (fun (i : Analysis.info) -> (i.ref_, Direct)) infos;
    array_layers = [];
    schedule;
  }

let find_info t ref_ =
  match Analysis.find t.infos ref_ with
  | Some info -> info
  | None ->
    Error.invalidf ~context:"Mapping" "unknown access %s"
      (Fmt.str "%a" Analysis.pp_access_ref ref_)

let validate_chain t info links =
  let reject fmt = Error.invalidf ~context:"Mapping" fmt in
  let main = Hierarchy.main_memory_level t.hierarchy in
  if links = [] then reject "empty chain";
  let check_link { candidate; layer } =
    if layer < 0 || layer >= main then
      reject "chain layer %d not on-chip" layer;
    let belongs =
      candidate.Candidate.stmt = info.Analysis.ref_.Analysis.stmt
      && candidate.Candidate.access_index = info.Analysis.ref_.Analysis.index
    in
    if not belongs then
      reject "candidate %s does not belong to the access"
        candidate.Candidate.id
  in
  List.iter check_link links;
  let rec check_order = function
    | a :: (b :: _ as rest) ->
      if a.candidate.Candidate.level <= b.candidate.Candidate.level then
        reject "chain levels must strictly decrease";
      if a.layer >= b.layer then reject "chain layers must strictly increase";
      check_order rest
    | [ _ ] | [] -> ()
  in
  check_order links

let with_placement t ref_ placement =
  let info = find_info t ref_ in
  (match placement with
  | Direct -> ()
  | Chain links -> validate_chain t info links);
  let replace (r, p) =
    if Analysis.compare_access_ref r ref_ = 0 then (r, placement) else (r, p)
  in
  { t with placements = List.map replace t.placements }

let with_array_layer t ~array ~layer =
  if Mhla_ir.Program.find_array t.program array = None then
    Error.invalidf ~context:"Mapping" "unknown array %s" array;
  let main = Hierarchy.main_memory_level t.hierarchy in
  let array_layers = List.remove_assoc array t.array_layers in
  match layer with
  | None -> { t with array_layers }
  | Some level ->
    if level < 0 || level >= main then
      Error.invalidf ~context:"Mapping" "level %d is not on-chip" level;
    { t with array_layers = (array, level) :: array_layers }

let placement_of t ref_ =
  match
    List.find_opt
      (fun (r, _) -> Analysis.compare_access_ref r ref_ = 0)
      t.placements
  with
  | Some (_, p) -> p
  | None ->
    Error.invalidf ~context:"Mapping" "unknown access %s"
      (Fmt.str "%a" Analysis.pp_access_ref ref_)

let array_layer t array =
  match List.assoc_opt array t.array_layers with
  | Some level -> level
  | None -> Hierarchy.main_memory_level t.hierarchy

let serving_layer t ref_ =
  match placement_of t ref_ with
  | Direct ->
    let info = find_info t ref_ in
    array_layer t info.Analysis.array
  | Chain (link :: _) -> link.layer
  | Chain [] -> assert false

type block_transfer = {
  bt_id : string;
  bt_candidate : Candidate.t;
  src_layer : int;
  dst_layer : int;
  issues : int;
  bytes_per_issue : int;
  total_bytes : int;
  is_writeback : bool;
}

let transfers_of_chain ~transfer_mode ~home links =
  let rec walk = function
    | [] -> []
    | link :: rest ->
      let src = match rest with [] -> home | next :: _ -> next.layer in
      let c = link.candidate in
      let total = Candidate.total_bytes transfer_mode c in
      let issues = c.Candidate.issues in
      let bt =
        {
          bt_id = c.Candidate.id;
          bt_candidate = c;
          src_layer = src;
          dst_layer = link.layer;
          issues;
          bytes_per_issue = (if issues = 0 then 0 else total / issues);
          total_bytes = total;
          is_writeback = c.Candidate.direction = Mhla_ir.Access.Write;
        }
      in
      bt :: walk rest
  in
  walk links

(* A promoted array pays one whole-array fill (it is read on-chip) and,
   when written, one whole-array drain; both stream against the
   off-chip store. Conservative for pure temporaries, but safe. *)
let promoted_transfers t ~array ~level =
  let main = Hierarchy.main_memory_level t.hierarchy in
  let decl =
    match Mhla_ir.Program.find_array t.program array with
    | Some d -> d
    | None -> assert false
  in
  let bytes = Mhla_ir.Array_decl.size_bytes decl in
  let any dir =
    List.exists
      (fun (i : Analysis.info) -> i.array = array && i.direction = dir)
      t.infos
  in
  let mk suffix is_writeback =
    (* Promoted arrays move as one whole-array stream; reuse the
       level-0 candidate of any access for bookkeeping fields. *)
    let proxy =
      List.find_map
        (fun (i : Analysis.info) ->
          if i.array = array then
            List.find_opt
              (fun (c : Candidate.t) -> c.Candidate.level = 0)
              i.candidates
          else None)
        t.infos
    in
    match proxy with
    | None -> None
    | Some c ->
      Some
        {
          bt_id = array ^ suffix;
          bt_candidate = c;
          src_layer = main;
          dst_layer = level;
          issues = 1;
          bytes_per_issue = bytes;
          total_bytes = bytes;
          is_writeback;
        }
  in
  List.filter_map Fun.id
    [
      (if any Mhla_ir.Access.Read then mk ":fill" false else None);
      (if any Mhla_ir.Access.Write then mk ":drain" true else None);
    ]

let promoted_array_transfers t =
  List.concat_map
    (fun (array, level) -> promoted_transfers t ~array ~level)
    t.array_layers

(* Two chain links whose candidates share a [share_key] and endpoints
   hold the same data in the same rhythm: one buffer, one transfer
   stream. Keep the first occurrence. *)
let bt_dedupe_key bt =
  let c = bt.bt_candidate in
  ( c.Candidate.share_key,
    c.Candidate.direction = Mhla_ir.Access.Write,
    bt.src_layer,
    bt.dst_layer )

let dedupe_transfers bts =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun bt ->
      let key = bt_dedupe_key bt in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    bts

let block_transfers t =
  let chains =
    List.concat_map
      (fun (ref_, placement) ->
        match placement with
        | Direct -> []
        | Chain links ->
          let info = find_info t ref_ in
          transfers_of_chain ~transfer_mode:t.transfer_mode
            ~home:(array_layer t info.Analysis.array)
            links)
      t.placements
  in
  dedupe_transfers chains @ promoted_array_transfers t

let layer_blocks t ~level =
  (* Shared buffers appear once, alive over the hull of their sharers'
     lifetimes. *)
  let shared = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun ((_ : Analysis.access_ref), placement) ->
      match placement with
      | Direct -> ()
      | Chain links ->
        List.iter
          (fun link ->
            if link.layer = level then begin
              let c = link.candidate in
              let interval = Schedule.candidate_interval t.schedule c in
              let key = c.Candidate.share_key in
              match Hashtbl.find_opt shared key with
              | None ->
                Hashtbl.replace shared key
                  {
                    Occupancy.label = c.Candidate.id;
                    interval;
                    bytes = c.Candidate.footprint_bytes;
                  };
                order := key :: !order
              | Some block ->
                Hashtbl.replace shared key
                  {
                    block with
                    Occupancy.interval =
                      Mhla_util.Interval.hull block.Occupancy.interval
                        interval;
                    bytes = max block.Occupancy.bytes
                        c.Candidate.footprint_bytes;
                  }
            end)
          links)
    t.placements;
  let chain_blocks =
    List.rev_map (fun key -> Hashtbl.find shared key) !order
  in
  let array_blocks =
    List.filter_map
      (fun (array, l) ->
        if l = level then
          let decl =
            match Mhla_ir.Program.find_array t.program array with
            | Some d -> d
            | None -> assert false
          in
          Some
            {
              Occupancy.label = array;
              interval = Schedule.array_interval t.schedule array;
              bytes = Mhla_ir.Array_decl.size_bytes decl;
            }
        else None)
      t.array_layers
  in
  chain_blocks @ array_blocks

let occupancy_ok ?(policy = Occupancy.In_place) ?(extra = []) t =
  let ok level =
    let layer = Hierarchy.layer t.hierarchy level in
    match layer.Mhla_arch.Layer.capacity_bytes with
    | None -> true
    | Some capacity ->
      let extras =
        List.filter_map
          (fun (l, block) -> if l = level then Some block else None)
          extra
      in
      Occupancy.fits policy ~capacity (layer_blocks t ~level @ extras)
  in
  List.for_all ok (Hierarchy.on_chip_levels t.hierarchy)

let with_hierarchy t hierarchy =
  if Hierarchy.levels hierarchy <> Hierarchy.levels t.hierarchy then
    Error.invalidf ~context:"Mapping.with_hierarchy" "level counts differ";
  { t with hierarchy }

let pp ppf t =
  let pp_placement ppf = function
    | Direct -> Fmt.string ppf "direct"
    | Chain links ->
      let pp_link ppf { candidate; layer } =
        Fmt.pf ppf "%s->L%d" candidate.Candidate.id layer
      in
      Fmt.(list ~sep:comma pp_link) ppf links
  in
  Fmt.pf ppf "@[<v>mapping of %s:@," t.program.Mhla_ir.Program.name;
  List.iter
    (fun (r, p) ->
      Fmt.pf ppf "  %a: %a@," Analysis.pp_access_ref r pp_placement p)
    t.placements;
  List.iter
    (fun (a, l) -> Fmt.pf ppf "  array %s on L%d@," a l)
    t.array_layers;
  Fmt.pf ppf "@]"
