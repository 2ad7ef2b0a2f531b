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
      constraint the extension stops. Each granted step hides one
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

(** The TE decision for one block transfer. *)
type plan = {
  bt : Mapping.block_transfer;
  bt_time : int;  (** per-issue hideable cycles, Figure 1's BT_time *)
  sort_factor : float;  (** [bt_time / bytes_per_issue] *)
  freedom : string list;  (** freedom loops, innermost first *)
  extended : string list;  (** loops actually granted, innermost first *)
  extra_buffers : int;  (** additional footprint-sized buffers *)
  hidden_cycles : int;  (** per issue, clamped to [bt_time] *)
  limit : limit;
  dma_priority : int;  (** 0 = highest *)
}

(** How the BT list is ordered before the greedy pass. The paper uses
    [By_time_over_size]; the others are the EXT-ORDER ablation. *)
type order = By_time_over_size | Fifo | By_size | By_time

type schedule = {
  plans : plan list;  (** in greedy (priority) order *)
  order : order;
}

val run :
  ?order:order ->
  ?policy:Mhla_lifetime.Occupancy.policy ->
  ?defer_writebacks:bool ->
  ?telemetry:Mhla_obs.Telemetry.t ->
  Mapping.t ->
  schedule
(** Defaults: the paper's [By_time_over_size] order, in-place sizing,
    and — like the paper — prefetching of reads only.
    [defer_writebacks] additionally plans the symmetric extension the
    paper leaves as future work: a buffer's drain to the off-chip store
    is deferred into the following iterations (the buffer lives one
    extra iteration per granted loop) so the same compute hides it; a
    drain may not cross any other access to an overlapping region of
    the array, and drains only use the buffer slack the prefetches
    leave behind (fetches always plan first). [telemetry] (default
    noop) records a [te.run] span and one [te.plan] event per block
    transfer carrying [bt_time], [sort_factor], the granted loops and
    the stopping [limit]. *)

val hidden_per_issue : schedule -> string -> int
(** Lookup for {!Cost.evaluate}: hidden cycles of a BT by id, [0] for
    unknown ids. *)

val evaluate : Mapping.t -> schedule -> Cost.breakdown
(** [Cost.evaluate] with this schedule's hiding applied. *)

val total_hidden_cycles : schedule -> int
(** Sum over BTs of [issues * hidden_cycles] — the cycles TE removed. *)

val pp_plan : plan Fmt.t
