(** TE-schedule race checker.

    For every plan of a {!Mhla_core.Prefetch.schedule}, independently
    recomputes the block transfer's freedom loops from the writer /
    reader positions in the program (bounding-box dependence over the
    affine accesses, walking outward from the refresh loop) and flags
    any granted extension that is not a prefix of that freedom — a
    prefetch moved across a data dependency. Also checks the
    destination-buffer discipline: a plan whose prefetch distance
    exceeds its provisioned double buffers would overwrite data still
    being read, and a plan may not claim more hidden cycles than one
    issue of the transfer takes, nor exist for a transfer that is not
    DMA-eligible at all.

    Needs both the mapping and the schedule; emits nothing when either
    is absent.

    Codes: [MHLA101] (extension past the recomputed freedom), [MHLA102]
    (prefetch distance exceeds buffers), [MHLA103] (hidden cycles
    exceed the issue time), [MHLA104] (plan for a non-eligible
    transfer). *)

val pass : Pass.t

val freedom_of_plan :
  Mhla_core.Mapping.t -> Mhla_core.Prefetch.plan -> string list
(** The independently recomputed freedom loops of a plan's block
    transfer, innermost first — exposed for tests and reports. *)
