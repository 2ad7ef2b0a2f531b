(** MP3-style polyphase analysis filterbank (audio processing).

    Per granule, 32 sub-band outputs are produced from a 512-sample
    sliding window multiplied by a 512-coefficient analysis window.
    The coefficient window is fully reused every granule; the sample
    window slides by 32 — the canonical audio sliding-window reuse. *)

val app : Defs.t
