(** ADPCM voice coder (audio processing).

    IMA-ADPCM-style compression of a PCM stream. The sample stream is
    processed frame by frame; the 89-entry step-size table is consulted
    for every sample. The data-dependent table index is modelled as a
    frame-synchronous scan (uniform coverage), which preserves the
    table's whole-table copy candidate. *)

val app : Defs.t
