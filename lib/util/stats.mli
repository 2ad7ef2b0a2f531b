(** Small descriptive-statistics helpers used by benches and reports. *)

val mean : float list -> float
(** @raise Error.Error on the empty list. *)

val percentile : float list -> p:float -> float
(** Nearest-rank percentile with linear interpolation; [p] in
    [\[0, 100\]].
    @raise Error.Error on the empty list or [p] out of range. *)

val percent_gain : baseline:float -> improved:float -> float
(** [percent_gain ~baseline ~improved] is the reduction of [improved]
    with respect to [baseline], in percent — the metric of the paper's
    Figures 2 and 3 ("reduce execution time up to 60%").
    @raise Error.Error when [baseline = 0.]. *)
