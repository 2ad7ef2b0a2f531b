(** Full-search motion estimation (video encoding front-end).

    The classic MHLA driver workload: for every 16x16 block of the
    current frame, a search window of the previous frame is scanned at
    every displacement in a +/-8 range and the sum of absolute
    differences accumulated. The current block is reused across all
    289 displacements and the search window slides block by block —
    both are prime copy candidates. *)

val app : Defs.t
