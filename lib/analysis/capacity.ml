module Array_decl = Mhla_ir.Array_decl
module Candidate = Mhla_reuse.Candidate
module Hierarchy = Mhla_arch.Hierarchy
module Interval = Mhla_util.Interval
module Layer = Mhla_arch.Layer
module Mapping = Mhla_core.Mapping
module Occupancy = Mhla_lifetime.Occupancy
module Prefetch = Mhla_core.Prefetch
module Program = Mhla_ir.Program
module Schedule = Mhla_lifetime.Schedule

let name = "capacity"

(* The buffers alive on one level, their lifetimes taken from the
   program-order timeline. Candidates sharing a [share_key] hold the
   same data in the same rhythm: one buffer, alive over the hull of
   the sharers' lifetimes. *)
let placement_blocks timeline (m : Mapping.t) ~level =
  let shared = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun ((_ : Mhla_reuse.Analysis.access_ref), placement) ->
      match placement with
      | Mapping.Direct -> ()
      | Mapping.Chain links ->
        List.iter
          (fun (link : Mapping.chain_link) ->
            if link.Mapping.layer = level then begin
              let c = link.Mapping.candidate in
              let interval = Schedule.candidate_interval timeline c in
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
              | Some (b : Occupancy.block) ->
                Hashtbl.replace shared key
                  {
                    b with
                    Occupancy.interval =
                      Interval.hull b.Occupancy.interval interval;
                    bytes = max b.Occupancy.bytes c.Candidate.footprint_bytes;
                  }
            end)
          links)
    m.Mapping.placements;
  List.rev_map (fun key -> Hashtbl.find shared key) !order

let promoted_blocks timeline (m : Mapping.t) ~level =
  List.filter_map
    (fun (array, l) ->
      if l <> level then None
      else
        match Program.find_array m.Mapping.program array with
        | None -> None
        | Some decl ->
          Some
            {
              Occupancy.label = array;
              interval = Schedule.array_interval timeline array;
              bytes = Array_decl.size_bytes decl;
            })
    m.Mapping.array_layers

(* One extra buffer per granted TE loop, alive for that loop's whole
   span on the destination layer. Extending across the refresh loop of
   a delta-mode transfer only re-primes the sliding window's new part;
   any other step needs a whole-footprint buffer. A granted loop the
   program does not know is the dma-race pass's finding, not ours. *)
let te_blocks timeline (m : Mapping.t) (schedule : Prefetch.schedule) ~level =
  List.concat_map
    (fun (plan : Prefetch.plan) ->
      let bt = plan.Prefetch.bt in
      if bt.Mapping.dst_layer <> level then []
      else begin
        let c = bt.Mapping.bt_candidate in
        List.filter_map
          (fun iter ->
            match Schedule.loop_interval timeline iter with
            | exception Not_found -> None
            | interval ->
              let sliding =
                m.Mapping.transfer_mode = Candidate.Delta
                && c.Candidate.refresh_iter = Some iter
              in
              let bytes =
                if sliding then max 1 c.Candidate.delta_bytes_per_issue
                else c.Candidate.footprint_bytes
              in
              Some
                {
                  Occupancy.label =
                    Printf.sprintf "%s#te@%s" bt.Mapping.bt_id iter;
                  interval;
                  bytes;
                })
          plan.Prefetch.extended
      end)
    schedule.Prefetch.plans

let level_peak timeline ?schedule (m : Mapping.t) ~level =
  let blocks =
    placement_blocks timeline m ~level
    @ promoted_blocks timeline m ~level
    @
    match schedule with
    | None -> []
    | Some s -> te_blocks timeline m s ~level
  in
  Occupancy.peak_bytes m.Mapping.policy blocks

let recomputed_peaks ?schedule (m : Mapping.t) =
  List.map
    (fun level -> (level, level_peak m.Mapping.schedule ?schedule m ~level))
    (Hierarchy.on_chip_levels m.Mapping.hierarchy)

let check_level timeline ?schedule (m : Mapping.t) ~level =
  let peak = level_peak timeline ?schedule m ~level in
  let layer = Hierarchy.layer m.Mapping.hierarchy level in
  match layer.Layer.capacity_bytes with
  | Some capacity when peak > capacity ->
    [
      Diagnostic.makef ~code:"MHLA201" ~severity:Diagnostic.Error ~pass:name
        ~loc:(Diagnostic.location ~layer:level ())
        "recomputed peak occupancy is %dB but layer %s holds %dB" peak
        layer.Layer.name capacity;
    ]
  | _ -> []

let run (s : Pass.subject) =
  match s.Pass.mapping with
  | None -> []
  | Some m ->
    let timeline = Pass.timeline s in
    List.concat_map
      (fun level ->
        check_level timeline ?schedule:s.Pass.schedule m ~level)
      (Hierarchy.on_chip_levels m.Mapping.hierarchy)

let pass =
  {
    Pass.name;
    codes = [ "MHLA201" ];
    run;
  }
