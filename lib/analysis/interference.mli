(** TE-buffer interference checker.

    Recomputes, for every granted Time-Extension loop of a schedule,
    that loop's span on the program-order timeline
    ({!Mhla_lifetime.Schedule}) and checks it encloses the lifetime of
    the extended transfer's buffer — a span that does not means the plan's double buffer dies while the
    data it guards is still live ([MHLA203]). Also checks the engine
    discipline: the plans' DMA priorities must be the contiguous greedy
    sequence [0..n-1] in schedule order, or two transfers contend for
    the DMA engine with no defined winner ([MHLA204]).

    Needs the schedule; emits nothing without one. Independent of the
    solver: both checks are derived from the program's timeline and the
    schedule value alone, never from the planner's own claims.

    Codes: [MHLA203], [MHLA204]. *)

val pass : Pass.t
