(** What the verifier checks, and what one checker pass is.

    A {!subject} bundles a program with (optionally) the solver outputs
    to verify against it: a mapping from step 1 and a TE schedule from
    step 2. Passes that need an absent part emit nothing — a plain
    program can still be linted and bounds-checked. *)

type subject = {
  program : Mhla_ir.Program.t;
  mapping : Mhla_core.Mapping.t option;
  schedule : Mhla_core.Prefetch.schedule option;
  policy : Mhla_lifetime.Occupancy.policy;
      (** sizing policy the capacity pass recomputes under; must match
          what the solver used (default [In_place]) *)
  analysis : Fixpoint.solution Lazy.t;
      (** the solved abstract interpretation of [program]: forced by
          the first pass that needs a value range or a lifetime
          interval, shared by all of them *)
}

val subject :
  ?mapping:Mhla_core.Mapping.t ->
  ?schedule:Mhla_core.Prefetch.schedule ->
  ?policy:Mhla_lifetime.Occupancy.policy ->
  Mhla_ir.Program.t ->
  subject

val of_mapping :
  ?schedule:Mhla_core.Prefetch.schedule ->
  ?policy:Mhla_lifetime.Occupancy.policy ->
  Mhla_core.Mapping.t ->
  subject
(** The mapping's own program becomes the subject's program. *)

val solution : subject -> Fixpoint.solution
(** Force and return the subject's abstract interpretation. *)

(** One checker pass. *)
type t = {
  name : string;  (** stable, e.g. ["bounds"] — the enable/disable key *)
  description : string;
  codes : string list;  (** catalogue codes this pass can emit *)
  run : subject -> Diagnostic.t list;
}
