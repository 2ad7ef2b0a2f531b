(** Mappings: the output of the selection-and-assignment step.

    A mapping fixes, for every static access, which copy candidate (if
    any) serves it and on which layer each buffer of its copy chain
    lives; arrays themselves may also be promoted from the off-chip
    store to an on-chip layer. From a mapping the block transfers, the
    layer occupancies and the cost breakdown all follow.

    A mapping also carries the sizing policy its layers are checked
    under ({!Mhla_lifetime.Occupancy.policy}), set once by {!direct}
    and kept by every update. Step 1's engine, step 2's Time
    Extensions and the verifier's capacity pass all read it from here,
    so the three size a layer the same way. *)

(** One buffer of a copy chain. *)
type chain_link = {
  candidate : Mhla_reuse.Candidate.t;
  layer : int;  (** on-chip level holding the buffer *)
}

(** How an access is served. *)
type placement =
  | Direct  (** straight from the layer holding the array *)
  | Chain of chain_link list
      (** innermost buffer first: link 0 serves the CPU accesses, link
          [i] is refilled from link [i+1], the last link from the
          array's layer. Levels strictly decrease and layers strictly
          increase along the list. *)

type reuse = {
  infos : Mhla_reuse.Analysis.info list;
  schedule : Mhla_lifetime.Schedule.t;
}
(** The size-independent part of building a mapping: reuse analysis and
    the program timeline. Both depend only on the program, so one
    {!precompute} can be shared across every hierarchy of a budget
    sweep instead of being re-derived per point. *)

(** Declared after {!reuse} so the shared [infos]/[schedule] labels
    resolve to [t] in unannotated client code. *)
type t = private {
  program : Mhla_ir.Program.t;
  hierarchy : Mhla_arch.Hierarchy.t;
  transfer_mode : Mhla_reuse.Candidate.transfer_mode;
  policy : Mhla_lifetime.Occupancy.policy;
      (** how a layer's occupancy is sized against its capacity *)
  infos : Mhla_reuse.Analysis.info list;
  placements : (Mhla_reuse.Analysis.access_ref * placement) list;
  array_layers : (string * int) list;
      (** arrays promoted on-chip; absent = off-chip store *)
  schedule : Mhla_lifetime.Schedule.t;  (** cached program timeline *)
}

val precompute : Mhla_ir.Program.t -> reuse
(** Run {!Mhla_reuse.Analysis.analyze} and
    {!Mhla_lifetime.Schedule.of_program} once. *)

val direct :
  ?transfer_mode:Mhla_reuse.Candidate.transfer_mode ->
  ?policy:Mhla_lifetime.Occupancy.policy ->
  ?reuse:reuse ->
  Mhla_ir.Program.t ->
  Mhla_arch.Hierarchy.t ->
  t
(** The out-of-the-box mapping: every access Direct, every array
    off-chip. [transfer_mode] defaults to [Full], [policy] to
    [In_place]; every update below keeps both. [reuse] (when given)
    must be {!precompute} of the same program; it skips the analysis
    and scheduling passes. *)

val with_placement : t -> Mhla_reuse.Analysis.access_ref -> placement -> t
(** Functional update; validates the chain shape.
    @raise Mhla_util.Error.Error for an unknown access or malformed chain. *)

val with_array_layer : t -> array:string -> layer:int option -> t
(** Promote an array to an on-chip layer ([Some level]) or demote it
    back off-chip ([None]).
    @raise Mhla_util.Error.Error for an unknown array or the off-chip
    level. *)

val check_placement : t -> Mhla_reuse.Analysis.access_ref -> placement -> unit
(** The validation {!with_placement} runs, without the update.
    @raise Mhla_util.Error.Error exactly when {!with_placement} would. *)

val check_array_layer : t -> array:string -> layer:int option -> unit
(** The validation {!with_array_layer} runs, without the update.
    @raise Mhla_util.Error.Error exactly when {!with_array_layer}
    would. *)

val with_layout :
  t ->
  placements:(Mhla_reuse.Analysis.access_ref * placement) list ->
  array_layers:(string * int) list ->
  t
(** [t] with its placements and promoted arrays replaced wholesale,
    unchecked: the lists must be ones a sequence of {!with_placement}
    and {!with_array_layer} calls from [t] produces (placements in
    [infos] order, the latest promotion first). {!Engine.mapping}
    rebuilds its position through this. *)

val placement_of : t -> Mhla_reuse.Analysis.access_ref -> placement

val array_layer : t -> string -> int
(** The level holding the array (the off-chip level by default). *)

val serving_layer : t -> Mhla_reuse.Analysis.access_ref -> int
(** The level CPU accesses of this access actually hit. *)

(** A derived block transfer stream between two layers. *)
type block_transfer = {
  bt_id : string;
  bt_candidate : Mhla_reuse.Candidate.t;
  src_layer : int;
  dst_layer : int;
  issues : int;
  bytes_per_issue : int;  (** average over issues, honouring the mode *)
  total_bytes : int;
  is_writeback : bool;
      (** [true] when the stream drains a written buffer outward *)
}

val block_transfers : t -> block_transfer list
(** All copy-chain refills and write-backs, plus the initial fill /
    final drain of arrays promoted on-chip. Deterministic order. *)

(** {2 Per-unit transfer derivation}

    [block_transfers] composes the three functions below; the
    incremental cost engine calls them directly to rebuild only the
    transfers a move invalidated. *)

val transfers_of_chain :
  transfer_mode:Mhla_reuse.Candidate.transfer_mode ->
  home:int ->
  chain_link list ->
  block_transfer list
(** The refill/write-back streams of one placement chain, innermost
    link first; [home] is the level holding the owning array (the
    outermost link's source). *)

val promoted_transfers :
  t -> array:string -> level:int -> block_transfer list
(** The whole-array fill/drain streams of one promoted array. Depends
    on the array's accesses, not on any placement. *)

val bt_dedupe_key : block_transfer -> string * bool * int * int
(** [(share_key, is_write, src, dst)] — two chain transfers with equal
    keys move the same data in the same rhythm and are counted once
    (first occurrence wins, in [block_transfers] order). *)

val layer_blocks : t -> level:int -> Mhla_lifetime.Occupancy.block list
(** The buffers and promoted arrays living on one on-chip layer, with
    their lifetimes (for in-place sizing). *)

val occupancy_ok :
  ?extra:(int * Mhla_lifetime.Occupancy.block) list ->
  t ->
  bool
(** Every on-chip layer within capacity under the mapping's [policy],
    checked from scratch; [extra] adds transient blocks (e.g. TE double
    buffers) as [(level, block)]. To budget a layer below its physical
    size, shrink the hierarchy (what {!Explore.pareto} does per grid
    point). *)

val with_hierarchy : t -> Mhla_arch.Hierarchy.t -> t
(** The same placements evaluated against another platform with the
    same number of levels — used to stress TE under a tighter size
    constraint than the assignment used.
    @raise Mhla_util.Error.Error when the level counts differ. *)

val pp : t Fmt.t
