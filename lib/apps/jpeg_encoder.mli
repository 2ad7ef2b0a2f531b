(** JPEG-style still-image encoder (image processing).

    Per 8x8 block: a separable 2-D DCT using two small cosine tables,
    then quantisation against a 64-entry table. The cosine and
    quantisation tables are tiny and read millions of times — array
    promotion material — while the image streams block by block. *)

val app : Defs.t
