(** MHLA step 2: Time Extensions — application-specific prefetching
    (the paper's contribution, Figure 1).

    Every DMA-eligible block transfer is considered for {e extension}:
    initiating the transfer whole loop iterations before its data is
    consumed so that CPU compute hides the transfer time. Per Figure 1:

    - eligible BTs are collected with their per-issue time, their
      [time/size] sort factor, and their {e freedom loops} — the
      enclosing loops between the closest dependency (a writer of the
      source array) and the BT's issue point;
    - BTs are processed in greedy order (largest [time/size] first:
      most hidden cycles bought per byte of buffer space);
    - a BT is extended loop by loop, innermost outward. Each step needs
      one more buffer of the copy's footprint on the destination layer
      (longer copy lifetime); if that overflows the user's on-chip size
      constraint, sized under the mapping's policy as step 1 sized it,
      the extension stops. Each granted step hides one
      iteration's worth of CPU cycles of that loop; the BT stops early
      once fully hidden;
    - finally DMA priorities follow the greedy order.

    Only reads sourced from the off-chip layer are prefetched, and only
    when the platform has a transfer engine — without one, TE is not
    applicable and the schedule is empty. *)

(** Why a transfer got no (or no further) extension. *)
type limit =
  | Fully_hidden  (** enough cycles accumulated; no stall remains *)
  | Size_bound  (** next buffer would overflow the size constraint *)
  | Dependency_bound  (** ran out of freedom loops *)
  | Not_extendable  (** no freedom at all (dep in refresh loop, level-0
                        transfer, or unnested access) *)

(** An eligible block transfer, before any slack is granted: what
    Figure 1 collects for the greedy pass. *)
type candidate = {
  bt : Mapping.block_transfer;
  bt_time : int;  (** per-issue hideable cycles, Figure 1's BT_time *)
  sort_factor : float;  (** [bt_time / bytes_per_issue] *)
  freedom : string list;  (** freedom loops, innermost first *)
}

(** The TE decision for one block transfer. *)
type plan = {
  bt : Mapping.block_transfer;
  bt_time : int;  (** per-issue hideable cycles, Figure 1's BT_time *)
  sort_factor : float;  (** [bt_time / bytes_per_issue] *)
  freedom : string list;  (** freedom loops, innermost first *)
  extended : string list;  (** loops actually granted, innermost first *)
  extra_buffers : int;  (** additional footprint-sized buffers *)
  hidden_cycles : int;  (** per issue, at most [bt_time] *)
  limit : limit;
  dma_priority : int;  (** 0 = highest *)
}

type schedule = { plans : plan list  (** in greedy (priority) order *) }

val candidates : ?defer_writebacks:bool -> Mapping.t -> candidate list
(** The eligible block transfers in {!Mapping.block_transfers} order.
    Like the paper, only reads are eligible by default;
    [defer_writebacks] also admits buffer drains, the symmetric
    extension the paper leaves as future work: a buffer's drain to the
    off-chip store is deferred into the following iterations (the
    buffer lives one extra iteration per granted loop) so the same
    compute hides it. A drain's freedom stops at any other access to an
    overlapping region of the array. *)

val plan :
  ?telemetry:Mhla_obs.Telemetry.t -> Mapping.t -> candidate list -> schedule
(** Figure 1's grant walk over [candidates] in the order given, except
    that every fetch goes before every drain (drains only use the
    buffer slack the prefetches leave); DMA priorities follow the walk.
    [telemetry] (default noop) records one [te.plan] event per block
    transfer carrying [bt_time], [sort_factor], the granted loops and
    the stopping [limit]. *)

val run :
  ?defer_writebacks:bool ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  Mapping.t ->
  schedule
(** The paper's TE step: {!plan} over {!candidates}, stably sorted by
    [sort_factor], largest first, inside a [te.run] span. *)

val hidden_per_issue : schedule -> string -> int
(** Lookup for {!Cost.evaluate}: hidden cycles of a BT by id, [0] for
    unknown ids. *)

val evaluate : Mapping.t -> schedule -> Cost.breakdown
(** [Cost.evaluate] with this schedule's hiding applied. *)

val total_hidden_cycles : schedule -> int
(** Sum over BTs of [issues * hidden_cycles] — the cycles TE removed. *)

val pp_plan : plan Fmt.t
