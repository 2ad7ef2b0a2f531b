(** LPC voice analysis (audio processing).

    Frame-based linear-prediction front-end: per 160-sample frame an
    11-lag autocorrelation over the windowed speech, followed by a
    Levinson-Durbin recursion on tiny coefficient arrays. The speech
    frame is reused by every lag; the recursion arrays are small enough
    to promote wholesale. *)

val app : Defs.t
