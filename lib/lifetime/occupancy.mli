(** In-place storage sizing for one memory layer.

    The bytes a layer must provide for a set of allocated blocks is not
    their sum but the {e peak} of the concurrently-alive sizes — blocks
    with disjoint lifetimes overlay each other. This is the
    "array in-place optimisation" knob of the paper; turning it off
    (conservative sum) is the EXT-INPLACE ablation. *)

type block = {
  label : string;  (** for diagnostics: array or candidate id *)
  interval : Mhla_util.Interval.t;  (** lifetime on the schedule axis *)
  bytes : int;  (** buffer size *)
}

(** Sizing policy: [In_place] overlays lifetime-disjoint blocks,
    [Sum] charges every block for the whole run. *)
type policy = In_place | Sum

val peak_bytes : policy -> block list -> int

val fits : policy -> capacity:int -> block list -> bool

