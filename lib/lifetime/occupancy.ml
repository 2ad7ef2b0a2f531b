type block = {
  label : string;
  interval : Mhla_util.Interval.t;
  bytes : int;
}

type policy = In_place | Sum

let peak_bytes policy blocks =
  match policy with
  | Sum -> List.fold_left (fun acc b -> acc + b.bytes) 0 blocks
  | In_place ->
    (* Empty intervals (e.g. a candidate for an array never executed)
       still occupy their buffer at a single instant; widen them to one
       slot so they are charged. *)
    let weighted =
      List.map
        (fun b ->
          let iv = b.interval in
          let iv =
            if Mhla_util.Interval.is_empty iv then
              Mhla_util.Interval.make ~lo:iv.Mhla_util.Interval.lo
                ~hi:(iv.Mhla_util.Interval.lo + 1)
            else iv
          in
          (iv, b.bytes))
        blocks
    in
    Mhla_util.Interval.peak_weight weighted

let fits policy ~capacity blocks = peak_bytes policy blocks <= capacity
