(** The service wire format's JSON decoder: the program payload's codec
    and the path-typed kit every wire decoder is written on.

    [Gen.Snippet] proves programs serialise to OCaml source; this
    module is the machine-facing equivalent: a stable JSON shape that
    {!program_of_json_exn} decodes back through the validating
    {!Program.make}, so a decoded program carries exactly the
    invariants a built one does (unique names, positive trips,
    declared arrays, in-scope iterators). {!program_to_json} ∘
    {!program_of_json_exn} and the reverse composition are both the
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
    its own path (["$.arrays[0].element_bytes: must be > 0 (got 0)"]).

    {b The decode kit.} The rest of a request
    ({!Mhla_service.Request.of_json}) decodes with the same functions,
    so every wire decode failure reads
    ["Json_codec: <path>: <message>"]: an {!Mhla_util.Error.Error} of
    kind [Invalid_input] and context ["Json_codec"]. Each decoder takes
    the [path] of the value it reads and descends with [Field]/[Index];
    the text is rendered only when a decode fails. *)

type path = Root of string | Field of path * string | Index of path * int
(** Where a value sits in the document: [Field (Root "$", "arch")]
    renders as ["$.arch"], [Index (p, 2)] as ["<p>[2]"]. *)

val fail : path:path -> ('a, unit, string, 'b) format4 -> 'a
(** Raise the decode error ["Json_codec: <path>: <message>"]. *)

type fields = (string * Mhla_util.Json.t) list
(** An object's members, in document order. *)

val as_obj : path:path -> Mhla_util.Json.t -> fields

val as_str : path:path -> Mhla_util.Json.t -> string

val as_int : path:path -> Mhla_util.Json.t -> int

val as_bool : path:path -> Mhla_util.Json.t -> bool
(** Each [as_*] rejects any other JSON kind with ["expected a string,
    found int"] and the like. *)

val field : path:path -> fields -> string -> Mhla_util.Json.t
(** A mandatory member of the object at [path]; ["missing field "x""]
    at [path] when absent. *)

val check_fields : path:path -> allowed:string list -> fields -> unit
(** Reject the first member outside [allowed], at its own path
    (["$.budget: unknown field "budget" (expected one of: ...)"]): a
    field the decoder never reads would otherwise be dropped without a
    word. *)

val get :
  (path:path -> Mhla_util.Json.t -> 'a) -> path:path -> fields -> string -> 'a
(** [get decode ~path fields name]: the mandatory member [name],
    decoded at its own path. *)

val get_opt :
  (path:path -> Mhla_util.Json.t -> 'a) ->
  path:path ->
  fields ->
  string ->
  'a option
(** Like {!get} for an optional member: [None] when absent. *)

val items :
  (path:path -> Mhla_util.Json.t -> 'a) -> path:path -> Mhla_util.Json.t ->
  'a list
(** The elements of the array at [path], each decoded at its own
    index. *)

val program_to_json : Program.t -> Mhla_util.Json.t

val program_of_json_exn : ?path:path -> Mhla_util.Json.t -> Program.t
(** Decode and validate the program at [path] (default [Root "$"]).
    @raise Mhla_util.Error.Error ([Invalid_input]) on every structural
    and semantic rejection. *)
