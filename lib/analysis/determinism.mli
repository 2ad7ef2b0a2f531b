(** Schedule-determinism advisories (never errors).

    Two checks, both [Info]:

    - [MHLA401]: two adjacent plans of the TE schedule tie on the
      paper's [BT_time / size] key, recomputed from the mapping. The
      greedy pass breaks ties by input position, so their relative DMA
      priority follows enumeration order, not the objective — worth
      knowing when comparing runs. Fetches never tie against drains
      (the partition is deliberate).
    - [MHLA402]: a statement reads and writes overlapping regions of
      one array, per the closed-form subscript boxes ({!Mhla_ir.Access.box})
      — a recurrence, so the statement's iterations are not
      independent.
      Program-only; needs no solver output.

    Codes: [MHLA401], [MHLA402]. *)

val pass : Pass.t

val check_ties :
  Mhla_core.Mapping.t -> Mhla_core.Prefetch.schedule -> Diagnostic.t list
(** [MHLA401] findings alone — exposed for tests. *)
