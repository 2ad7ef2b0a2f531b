(** Statements: the leaves of the loop tree.

    A statement bundles the array accesses performed per execution and
    the pure compute work (in CPU cycles) it costs besides those
    accesses. The compute cycles are what Time Extensions use to hide
    block transfers. *)

type t = private {
  name : string;
  work_cycles : int;  (** CPU cycles per execution, memory excluded *)
  accesses : Access.t list;
}

val make : name:string -> work_cycles:int -> accesses:Access.t list -> t
(** @raise Mhla_util.Error.Error on an empty name or negative work. A
    statement with no accesses is allowed (pure compute). *)

val pp : t Fmt.t
