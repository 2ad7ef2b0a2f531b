(** Typed diagnostics with stable codes.

    Every finding of the static verifier is a {!t}: a stable code
    ([MHLA001]...) clients can match on and suppress, a {!severity}, the
    emitting pass, a structured {!location} pointing into the program /
    mapping / TE schedule, and a human-readable message. The catalogue
    of codes is data ({!catalogue}), so documentation and tests can
    enumerate every code the tool may ever emit. *)

type severity = Error | Warning | Info

val severity_label : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val pp_severity : severity Fmt.t

type location = {
  array : string option;  (** array declaration involved *)
  stmt : string option;  (** owning statement *)
  access_index : int option;  (** access position within the statement *)
  dim : int option;  (** subscript dimension, 0-based *)
  bt : string option;  (** block-transfer id *)
  layer : int option;  (** memory-hierarchy level *)
  iter : string option;  (** loop iterator *)
}
(** A structured location; every field optional, only meaningful ones
    set. *)

val location :
  ?array:string ->
  ?stmt:string ->
  ?access_index:int ->
  ?dim:int ->
  ?bt:string ->
  ?layer:int ->
  ?iter:string ->
  unit ->
  location

val location_fields : location -> (string * string) list
(** The populated fields as rendered [(key, value)] pairs, in the
    fixed field order — what {!pp} prints as [key=value] and what
    suppression rules match against. *)

type t = {
  code : string;  (** stable, e.g. ["MHLA001"] *)
  severity : severity;
  pass : string;  (** name of the emitting pass *)
  loc : location;
  message : string;
  trail : string list;
      (** provenance: how the finding was derived (iterator ranges,
          subscript boxes, timeline spans), one step per line; often
          empty *)
}

val make :
  code:string -> severity:severity -> pass:string -> ?loc:location ->
  ?trail:string list -> string -> t
(** @raise Mhla_util.Error.Error for a code missing from the
    {!catalogue} — a pass can only emit catalogued codes. *)

val makef :
  code:string -> severity:severity -> pass:string -> ?loc:location ->
  ?trail:string list -> ('a, Format.formatter, unit, t) format4 -> 'a

val promote_warnings : t -> t
(** [Warning] becomes [Error] (the [--Werror] promotion); other
    severities unchanged. *)

val catalogue : (string * severity * string) list
(** Every stable code the tool can emit with its default severity and
    trigger condition, sorted by code. *)

val catalogue_entry : string -> (string * severity * string) option

val compare_for_report : t -> t -> int
(** The total order reports are normalised under: (pass, code,
    severity, location, message, trail) — byte-stable whatever order
    the passes emitted in. *)

val pp : t Fmt.t
(** One line: [CODE severity [pass] loc: message]. *)

val to_json : t -> Mhla_util.Json.t
