(** Pareto frontiers over any number of minimised objectives.

    {!Nd} keeps the non-dominated subset of points whose objectives are
    float vectors of one shared dimension. A (size, cost) curve is the
    two-dimensional case: its lexicographic order is by increasing
    size.

    A point [p] {e dominates} [q] when [p] is no worse than [q] on
    every objective and strictly better on at least one. *)

(** N-objective frontiers. *)
module Nd : sig
  type 'a point
  (** A point: an objective vector (all minimised) plus a payload. *)

  val point : objectives:float array -> 'a -> 'a point
  (** The array is copied.
      @raise Error.Error on an empty vector or a NaN objective. *)

  val objectives : 'a point -> float array
  (** A copy of the objective vector. *)

  val payload : 'a point -> 'a

  val dim : 'a point -> int

  val dominates : 'a point -> 'b point -> bool
  (** [dominates p q]: no worse everywhere, strictly better somewhere.
      @raise Error.Error when the dimensions differ. *)

  val lex_compare : 'a point -> 'b point -> int
  (** Lexicographic order on the objective vectors — the frontier's
      canonical storage order.
      @raise Error.Error when the dimensions differ. *)

  type 'a t
  (** A frontier: a mutually non-dominated set, kept sorted by
      {!lex_compare}. The empty frontier accepts points of any
      dimension; a non-empty one only accepts its own. *)

  val empty : 'a t

  val size : 'a t -> int

  val is_empty : 'a t -> bool

  val add : 'a point -> 'a t -> 'a t
  (** [add p front] inserts [p] unless some frontier point dominates it
      or has the identical objective vector (first writer wins — the
      incumbent payload is kept); points [p] dominates are dropped. *)

  val of_list : 'a point list -> 'a t
  (** Folds {!add} left to right, so ties resolve to the earliest
      point in the list. *)

  val to_list : 'a t -> 'a point list
  (** In {!lex_compare} order. *)

  val mem_dominated : 'a point -> 'a t -> bool
  (** Whether some frontier point dominates the argument. *)

  val pp : payload:'a Fmt.t -> 'a t Fmt.t
end
