module I = Mhla_util.Interval

type placement = { block : Occupancy.block; offset : int }

type t = { placements : placement list; high_water_bytes : int }

(* Lifetimes are half-open; an empty one is widened to one slot, as in
   Occupancy, so the buffer still gets a home. *)
let lifetime (b : Occupancy.block) =
  let iv = b.Occupancy.interval in
  if I.is_empty iv then I.make ~lo:iv.I.lo ~hi:(iv.I.lo + 1) else iv

let lifetimes_overlap a b = I.overlaps (lifetime a) (lifetime b)

let ranges_overlap (p : placement) (q : placement) =
  p.offset < q.offset + q.block.Occupancy.bytes
  && q.offset < p.offset + p.block.Occupancy.bytes

(* First fit: scan the address gaps left by already-placed,
   lifetime-overlapping blocks. *)
let place_one placed (b : Occupancy.block) ~capacity =
  let busy =
    List.filter (fun p -> lifetimes_overlap p.block b) placed
    |> List.map (fun p -> (p.offset, p.offset + p.block.Occupancy.bytes))
    |> List.sort compare
  in
  let rec scan candidate = function
    | [] ->
      if candidate + b.Occupancy.bytes <= capacity then Some candidate
      else None
    | (lo, hi) :: rest ->
      if candidate + b.Occupancy.bytes <= lo then Some candidate
      else scan (max candidate hi) rest
  in
  scan 0 busy

let allocate ~capacity blocks =
  if capacity <= 0 then Error "allocate: non-positive capacity"
  else begin
    (* Decreasing size, stable for determinism. *)
    let order =
      List.stable_sort
        (fun (a : Occupancy.block) b ->
          compare b.Occupancy.bytes a.Occupancy.bytes)
        blocks
    in
    let rec go placed = function
      | [] -> Ok placed
      | (b : Occupancy.block) :: rest ->
        if b.Occupancy.bytes > capacity then
          Error
            (Printf.sprintf "allocate: block %s (%dB) exceeds capacity %d"
               b.Occupancy.label b.Occupancy.bytes capacity)
        else (
          match place_one placed b ~capacity with
          | Some offset -> go ({ block = b; offset } :: placed) rest
          | None ->
            Error
              (Printf.sprintf
                 "allocate: no gap for block %s (%dB) within capacity %d"
                 b.Occupancy.label b.Occupancy.bytes capacity))
    in
    match go [] order with
    | Error _ as e -> e
    | Ok placed ->
      (* Restore input order for the result. *)
      let placements =
        List.map
          (fun b ->
            List.find (fun p -> p.block == b) placed)
          blocks
      in
      let high_water =
        List.fold_left
          (fun acc p -> max acc (p.offset + p.block.Occupancy.bytes))
          0 placed
      in
      Ok { placements; high_water_bytes = high_water }
  end

let conflicts t =
  let rec pairs acc = function
    | p :: rest ->
      let acc =
        List.fold_left
          (fun acc q ->
            if lifetimes_overlap p.block q.block && ranges_overlap p q then
              (p, q) :: acc
            else acc)
          acc rest
      in
      pairs acc rest
    | [] -> acc
  in
  pairs [] t.placements

let utilisation t =
  if t.high_water_bytes = 0 then 1.
  else
    let peak =
      Occupancy.peak_bytes Occupancy.In_place
        (List.map (fun p -> p.block) t.placements)
    in
    float_of_int peak /. float_of_int t.high_water_bytes
