(** Footprints of affine accesses.

    The footprint of an access with respect to a set of {e free}
    iterators is the set of array elements touched while the free
    iterators sweep their full ranges and the others stay fixed. For
    affine subscripts this is a (bounding) box: along each array
    dimension the subscript spans [extent + 1] consecutive-ish values.
    The box is exact for single-iterator subscripts with stride 1 and a
    safe over-approximation otherwise — the standard copy-candidate
    sizing used by the MHLA papers. *)

val elements :
  decl:Mhla_ir.Array_decl.t ->
  trip:(string -> int) ->
  free:(string -> bool) ->
  Mhla_ir.Access.t ->
  int
(** Product of the elements touched along each dimension, each
    clamped to the declared dimension extent. *)

val bytes :
  decl:Mhla_ir.Array_decl.t ->
  trip:(string -> int) ->
  free:(string -> bool) ->
  Mhla_ir.Access.t ->
  int
(** [elements * element_bytes]. *)

val overlap_elements :
  decl:Mhla_ir.Array_decl.t ->
  trip:(string -> int) ->
  free:(string -> bool) ->
  advance:string ->
  Mhla_ir.Access.t ->
  int
(** [overlap_elements ~advance access] is the number of elements shared
    between the footprints of two successive iterations of the loop
    [advance] (the free iterators sweeping in both): the data a
    delta/incremental block transfer does {e not} need to re-fetch.
    Along each dimension the window shifts by [|coeff advance|]. *)
