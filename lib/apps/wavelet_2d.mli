(** Two-level 2-D discrete wavelet transform (image processing).

    Each level runs a horizontal filtering pass producing low/high
    bands, then a vertical pass over the low band. Row-oriented and
    column-oriented accesses alternate, so the profitable copies differ
    per pass — a layer-assignment stress test. *)

val app : Defs.t
