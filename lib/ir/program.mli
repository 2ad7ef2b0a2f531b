(** Whole programs: array declarations plus a tree of loops and
    statements, executed sequentially in source order.

    This is the geometric application model MHLA explores: trip counts,
    nesting and affine accesses are all the technique needs — the same
    abstraction ATOMIUM extracts from C sources. *)

type node = Loop of loop | Stmt of Stmt.t

and loop = { iter : string; trip : int; body : node list }

type t = private {
  name : string;
  arrays : Array_decl.t list;
  body : node list;
}

val make :
  name:string -> arrays:Array_decl.t list -> body:node list ->
  (t, string) result
(** Validates the program:
    - array names and statement names unique, iterator names unique,
    - trip counts positive, loop bodies non-empty,
    - every access names a declared array with matching rank,
    - every iterator in a subscript belongs to an enclosing loop. *)

val make_exn :
  name:string -> arrays:Array_decl.t list -> body:node list -> t
(** @raise Mhla_util.Error.Error with the validation message. *)

(** The nesting context of one statement occurrence. *)
type context = {
  stmt : Stmt.t;
  loops : (string * int) list;
      (** enclosing loops as [(iterator, trip)], outermost first *)
}

val contexts : t -> context list
(** All statements, in source (sequential execution) order. *)

val fold_stmts : t -> init:'a -> f:('a -> context -> 'a) -> 'a

val executions : context -> int
(** How many times the statement runs: the product of enclosing trips. *)

val find_array : t -> string -> Array_decl.t option

val find_context : t -> stmt:string -> context option

val total_accesses : t -> array:string -> int
(** Dynamic access count (reads plus writes) to an array. *)

val total_work_cycles : t -> int
(** Dynamic pure-compute cycles of the whole program. *)

val total_access_count : t -> int
(** Dynamic access count over all arrays. *)

val array_names : t -> string list

val stmt_names : t -> string list

val iterator_trip : t -> string -> int option
(** Trip count of a loop iterator anywhere in the program. *)

val pp : t Fmt.t
(** Multi-line rendering of the loop tree. *)
