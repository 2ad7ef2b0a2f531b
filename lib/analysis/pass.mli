(** What the verifier checks, and what one checker pass is.

    A {!subject} bundles a program with (optionally) the solver outputs
    to verify against it: a mapping from step 1 and a TE schedule from
    step 2. Passes that need an absent part emit nothing — a plain
    program can still be linted and bounds-checked. The capacity pass
    sizes layers under the mapping's own policy, the one the solver
    sized them under.

    Every fact a pass re-derives comes straight off the loop tree. The
    IR has constant trip counts, affine subscripts and a fixed
    statement order, so an iteration space is a box, a subscript's
    range is the closed form {!Mhla_ir.Affine.min_value} /
    {!Mhla_ir.Affine.max_value} over it ({!Mhla_ir.Access.box}), and lifetimes
    are intervals of the program-order {!Mhla_lifetime.Schedule}. *)

type subject = {
  program : Mhla_ir.Program.t;
  mapping : Mhla_core.Mapping.t option;
  schedule : Mhla_core.Prefetch.schedule option;
  timeline : Mhla_lifetime.Schedule.t Lazy.t;
      (** the program-order timeline of [program]: the mapping's cached
          [schedule] when there is a mapping, otherwise built by the
          first pass that needs a lifetime interval; shared by all of
          them *)
}

val subject :
  ?mapping:Mhla_core.Mapping.t ->
  ?schedule:Mhla_core.Prefetch.schedule ->
  Mhla_ir.Program.t ->
  subject
(** A [mapping] must be one of [program]: the subject takes the
    mapping's cached [schedule] as its timeline, so verifying an
    answer does not walk the loop tree a second time. *)

val of_mapping :
  ?schedule:Mhla_core.Prefetch.schedule ->
  Mhla_core.Mapping.t ->
  subject
(** The mapping's own program becomes the subject's program. *)

val timeline : subject -> Mhla_lifetime.Schedule.t
(** Force and return the subject's timeline. *)

(** One checker pass. *)
type t = {
  name : string;  (** stable, e.g. ["bounds"] — the enable/disable key *)
  codes : string list;  (** catalogue codes this pass can emit *)
  run : subject -> Diagnostic.t list;
}
