(** Copy candidates: the units MHLA places on memory layers.

    For an access nested in loops [L0 (outermost) .. L(n-1)], the
    candidate at {e level} [j] (with [0 <= j <= n]) keeps in a buffer
    the data the access touches while loops [Lj .. L(n-1)] sweep; the
    buffer is (re)filled by one block transfer per combined iteration
    of the fixed loops [L0 .. L(j-1)]:

    - level [0]: one transfer before the whole nest (whole-footprint
      copy);
    - level [j > 0]: a transfer at the top of every iteration of
      [L(j-1)], the candidate's {e refresh loop};
    - level [n]: degenerate per-execution fetch (no reuse).

    Lower levels need bigger buffers but fewer transfers; the
    assignment step trades the two off under the layer size budget. *)

type t = private {
  id : string;  (** unique: ["stmt/access@level"] *)
  stmt : string;
  access_index : int;  (** position of the access within the statement *)
  array : string;
  direction : Mhla_ir.Access.direction;
  level : int;
  refresh_iter : string option;
      (** iterator of the refresh loop; [None] at level 0 *)
  footprint_bytes : int;  (** buffer the candidate occupies *)
  accesses_served : int;  (** dynamic accesses redirected to the buffer *)
  issues : int;  (** number of block transfers *)
  bytes_per_issue : int;  (** bytes moved by one full refill *)
  total_bytes_full : int;  (** traffic when every refill is complete *)
  total_bytes_delta : int;
      (** traffic when successive refills only fetch the non-overlapping
          part of the sliding window (needs gather-capable DMA) *)
  element_bytes : int;  (** of the underlying array *)
  delta_bytes_per_issue : int;
      (** new bytes per refresh once the window is primed (= the
          sliding-window shift); equals [bytes_per_issue] when nothing
          overlaps or at level 0 *)
  share_key : string;
      (** two candidates with equal [share_key] hold the same data in
          the same rhythm: they share one buffer and one transfer
          stream when mapped to the same layer. Copy candidates belong
          to arrays, not accesses — two reads of one table at level 0
          need only one on-chip copy. *)
}

(** How block-transfer traffic is accounted. [Delta] models a DMA able
    to fetch only the new part of a sliding window — the array in-place
    / inter-copy reuse refinement. *)
type transfer_mode = Full | Delta

val total_bytes : transfer_mode -> t -> int

val reuse_factor : transfer_mode -> t -> float
(** Element accesses served per element transferred; > 1 means the
    candidate amortises its traffic. *)

val of_access :
  decl:Mhla_ir.Array_decl.t ->
  loops:(string * int) list ->
  stmt:string ->
  access_index:int ->
  Mhla_ir.Access.t ->
  t list
(** The candidates at levels [0 .. n] (in that order) of an access
    whose [n] enclosing loops are [loops] (outermost first). *)
