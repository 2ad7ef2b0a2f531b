(** JSON encoding of whole programs — the service wire format's
    program payload.

    [Gen.Snippet] proves programs serialise to OCaml source; this
    module is the machine-facing equivalent: a stable JSON shape that
    [program_of_json] decodes back through the validating
    {!Program.make}, so a decoded program carries exactly the
    invariants a built one does (unique names, positive trips,
    declared arrays, in-scope iterators). {!program_to_json} ∘
    {!program_of_json} and the reverse composition are both the
    identity — the round-trip law the fuzz battery's ["json"] check
    asserts on every generated program.

    The shape, by example:

    {v
    { "name": "blur",
      "arrays": [ { "name": "img", "dims": [64, 64], "element_bytes": 1 } ],
      "body": [
        { "loop": { "iter": "i", "trip": 62, "body": [
          { "stmt": { "name": "s0", "work": 3, "accesses": [
            { "array": "img", "dir": "read",
              "index": [ { "const": 1, "terms": [
                            { "iter": "i", "coeff": 1 } ] },
                         { "const": 0, "terms": [] } ] } ] } } ] } } ] }
    v}

    Every field is mandatory; affine subscripts are a constant plus
    [(iterator, coefficient)] terms sorted by iterator name. A
    non-positive [dims] entry, [element_bytes] or [trip] is rejected at
    its own path (["$.arrays[0].element_bytes: must be > 0 (got 0)"]). *)

val affine_to_json : Affine.t -> Mhla_util.Json.t

val affine_of_json : path:string -> Mhla_util.Json.t -> Affine.t
(** @raise Mhla_util.Error.Error ([Invalid_input]) on a malformed
    payload; [path] (e.g. ["$.body[0].loop"]) prefixes the message so
    the error names the offending node. *)

val access_to_json : Access.t -> Mhla_util.Json.t

val access_of_json : path:string -> Mhla_util.Json.t -> Access.t

val array_decl_to_json : Array_decl.t -> Mhla_util.Json.t

val array_decl_of_json : path:string -> Mhla_util.Json.t -> Array_decl.t

val node_to_json : Program.node -> Mhla_util.Json.t

val node_of_json : path:string -> Mhla_util.Json.t -> Program.node

val program_to_json : Program.t -> Mhla_util.Json.t

val program_of_json :
  ?path:string -> Mhla_util.Json.t -> (Program.t, Mhla_util.Error.t) result
(** Decode and validate ([path] defaults to ["$"]). All structural and
    semantic rejections come back as [Error] with kind
    [Invalid_input]; nothing is raised. *)

val program_of_json_exn : ?path:string -> Mhla_util.Json.t -> Program.t
(** @raise Mhla_util.Error.Error as {!program_of_json} reports. *)
