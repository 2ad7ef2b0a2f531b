(** Builder DSL for writing loop-nest programs compactly.

    Typical use (full-search motion estimation, abridged):
    {[
      let open Mhla_ir.Build in
      program "me"
        ~arrays:[ array "frame" [ 144; 176 ]; array "ref" [ 144; 176 ] ]
        [ loop "by" 9
            [ loop "bx" 11
                [ loop "dy" 16
                    [ stmt "sad" ~work:2
                        [ rd "frame" [ i "by" *$ 16 +$ i "dy"; i "bx" *$ 16 ] ]
                    ] ] ] ]
    ]} *)

val i : string -> Affine.t
(** An iterator as an index expression. *)

val c : int -> Affine.t
(** A constant index expression. *)

val ( +$ ) : Affine.t -> Affine.t -> Affine.t

val ( -$ ) : Affine.t -> Affine.t -> Affine.t

val ( *$ ) : Affine.t -> int -> Affine.t
(** Scaling by a constant (right operand). *)

val array : ?element_bytes:int -> string -> int list -> Array_decl.t
(** [element_bytes] defaults to 1 (one byte per pixel or sample). *)

val rd : string -> Affine.t list -> Access.t

val wr : string -> Affine.t list -> Access.t

val stmt : string -> ?work:int -> Access.t list -> Program.node
(** [work] defaults to 1 cycle per execution. *)

val loop : string -> int -> Program.node list -> Program.node

val program :
  string -> arrays:Array_decl.t list -> Program.node list -> Program.t
(** @raise Mhla_util.Error.Error when validation fails. *)
