(** Plain-text table rendering for benches and reports.

    The bench harness prints every reproduced figure/table of the paper
    as an aligned ASCII table; this module does the alignment. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** A table with the given column headers and alignments. *)

val add_row : t -> string list -> unit
(** @raise Error.Error when the row width does not match the
    header. *)

val render : t -> string
(** The whole table, headers included, newline-terminated rows. *)

val print : t -> unit
(** [render] to stdout. *)

val cell_float : ?decimals:int -> float -> string
(** Fixed-point rendering, default 2 decimals. *)

val cell_percent : ?decimals:int -> float -> string
(** Like {!cell_float} with a ["%"] suffix, default 1 decimal. *)

val cell_int : int -> string
