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
  layer_budgets : int list option;
      (** an exploration budget per on-chip layer, innermost level
          first, tighter than the hierarchy's capacities; the capacity
          pass reports a recomputed peak above it as MHLA202 (default
          [None]). Solvers take no budget vector — they budget a layer
          by shrinking the hierarchy (see {!Mhla_core.Assign.feasible})
          — so only a caller that wants this extra check sets it. *)
  analysis : Fixpoint.solution Lazy.t;
      (** the solved abstract interpretation of [program]: forced by
          the first pass that needs a value range or a lifetime
          interval, shared by all of them *)
}

val subject :
  ?mapping:Mhla_core.Mapping.t ->
  ?schedule:Mhla_core.Prefetch.schedule ->
  ?policy:Mhla_lifetime.Occupancy.policy ->
  ?layer_budgets:int list ->
  ?analysis:Fixpoint.solution ->
  Mhla_ir.Program.t ->
  subject
(** [analysis] injects an already-solved fixpoint (it must belong to
    this program) so repeated checks of one program — the incremental
    verifier's whole life — never re-solve; by default the subject
    solves lazily on first use. *)

val of_mapping :
  ?schedule:Mhla_core.Prefetch.schedule ->
  ?policy:Mhla_lifetime.Occupancy.policy ->
  ?layer_budgets:int list ->
  ?analysis:Fixpoint.solution ->
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
