(** First-class search policies.

    A policy bundles the two decision points of the MHLA flow that
    were previously hard-wired call-site arguments:

    - {e CC selection} — which copy candidates even enter the chain
      space ([cc_top_k], set as {!Mhla_core.Assign.config}'s
      [cc_top_k]);
    - {e layer assignment} — which step-1 search walks the move space
      ({!Mhla_core.Explore.search}).

    Time Extensions always grant slack in the paper's
    [BT_time / size] order ({!Mhla_core.Prefetch.run}); other orders
    are ablations that sort {!Mhla_core.Prefetch.candidates}
    themselves, not policies.

    [run] is {!Mhla_core.Explore.run} with the two knobs set from the
    policy; {!greedy} reproduces the default pipeline
    bit-identically (the regression tests assert it). Policies are
    plain data so the portfolio can race them and the registry can
    name them. *)

type t = {
  name : string;  (** registry key, also used in reports *)
  search : Mhla_core.Explore.search;
  cc_top_k : int option;
      (** [Some k] keeps, per access, the [k] candidates with the
          highest reuse factor (see {!Mhla_core.Assign.config});
          [None] keeps every useful candidate *)
}

val make :
  ?search:Mhla_core.Explore.search ->
  ?cc_top_k:int ->
  string ->
  t
(** Defaults reproduce {!greedy}: steepest descent, no CC
    filtering. *)

(** {2 The built-in policies} (see {!Registry.builtins}) *)

val greedy : t
(** ["greedy"] — the default pipeline, bit-identical to
    [Explore.run] with no overrides. *)

val greedy_first : t
(** ["greedy-first"] — first-improving descent. *)

val anneal : t
(** ["anneal"] — simulated annealing, seed 42, 4000 iterations. *)

val lean : t
(** ["lean"] — greedy step 1 over only the single best candidate per
    access ([cc_top_k = Some 1]): the cheap end of the probe-budget spectrum. *)

val run :
  ?config:Mhla_core.Assign.config ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  ?reuse:Mhla_core.Mapping.reuse ->
  ?checkpoint:(unit -> unit) ->
  t ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  Mhla_core.Explore.result
(** The full flow under this policy — [Explore.run] with [config]'s
    [cc_top_k] replaced by the policy's, and the policy's search. *)
