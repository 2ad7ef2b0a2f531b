(** QSDPCM video encoder (video encoding).

    Quadtree-Structured DPCM: the frame is subsampled 4:1, a coarse
    motion estimation runs at quarter resolution with a small search
    range, and the displaced frame difference is quantised at full
    resolution. Three sequential phases with very different reuse
    patterns — the original MHLA paper's flagship application. *)

val app : Defs.t
