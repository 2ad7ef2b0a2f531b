(** Affine index expressions over loop iterators.

    An expression has the shape [c0 + c1*i1 + ... + cn*in] where the
    [ik] are loop iterator names. This is the access-function language
    of the whole tool: every array subscript in the IR is affine, which
    is what makes footprints and reuse analytically computable — the
    same restriction the ATOMIUM front-end imposes on input C code. *)

type t

val const : int -> t

val var : ?coeff:int -> string -> t
(** [var ~coeff i] is [coeff * i]; [coeff] defaults to 1. A zero
    coefficient yields {!const}[ 0]. *)

val add : t -> t -> t

val scale : int -> t -> t

val offset : int -> t -> t
(** [offset k e] is [e + k]. *)

val constant_part : t -> int

val coeff : t -> string -> int
(** The coefficient of an iterator, [0] when absent. *)

val iterators : t -> string list
(** Iterators with non-zero coefficient, sorted, without duplicates. *)

val eval : t -> env:(string -> int) -> int
(** Evaluate with [env] giving each iterator's current value.
    @raise Not_found if [env] raises it for a needed iterator. *)

val extent : t -> trip:(string -> int) -> free:(string -> bool) -> int
(** [extent e ~trip ~free] is the width of the value range of [e] when
    every iterator [i] with [free i] sweeps [0 .. trip i - 1] and the
    others are held fixed: [sum over free i of |coeff i| * (trip i - 1)].
    The number of distinct array elements touched along a dimension is
    at most [extent + 1].
    @raise Mhla_util.Error.Error if a free iterator has [trip i <= 0]. *)

val min_value : t -> trip:(string -> int) -> int
(** Smallest value when {e all} iterators sweep their full range.
    @raise Mhla_util.Error.Error if any iterator has [trip i <= 0]. *)

val max_value : t -> trip:(string -> int) -> int
(** Largest value when {e all} iterators sweep their full range.
    @raise Mhla_util.Error.Error if any iterator has [trip i <= 0]. *)

val subst : iter:string -> replacement:t -> t -> t
(** Replace one iterator by an affine expression. *)

val rename : (string -> string) -> t -> t
(** Rename every iterator. The mapping must be injective on the
    expression's iterators (colliding names would merge coefficients).
    @raise Mhla_util.Error.Error when two iterators rename to the same
    target. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val to_string : t -> string
(** Terms in iterator order joined by [" + "], a coefficient other
    than 1 written [c*i], then a non-zero constant: ["2*i + j + -3"];
    a constant-only form is just the constant. *)

val pp : t Fmt.t
(** Prints {!to_string}. *)
