module Json = Mhla_util.Json

type severity = Error | Warning | Info

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

let pp_severity ppf s = Fmt.string ppf (severity_label s)

type location = {
  array : string option;
  stmt : string option;
  access_index : int option;
  dim : int option;
  bt : string option;
  layer : int option;
  iter : string option;
}

let no_location =
  {
    array = None;
    stmt = None;
    access_index = None;
    dim = None;
    bt = None;
    layer = None;
    iter = None;
  }

let location ?array ?stmt ?access_index ?dim ?bt ?layer ?iter () =
  { array; stmt; access_index; dim; bt; layer; iter }

(* (key, rendered value) of the populated fields, in a fixed order. *)
let loc_fields l =
  let str k v = Option.map (fun v -> (k, `S v)) v in
  let int k v = Option.map (fun v -> (k, `I v)) v in
  List.filter_map Fun.id
    [
      str "array" l.array;
      str "stmt" l.stmt;
      int "access" l.access_index;
      int "dim" l.dim;
      str "bt" l.bt;
      int "layer" l.layer;
      str "iter" l.iter;
    ]

let location_fields l =
  List.map
    (fun (k, v) -> (k, match v with `S s -> s | `I i -> string_of_int i))
    (loc_fields l)

let pp_location ppf l =
  let pp_field ppf (k, v) =
    match v with
    | `S s -> Fmt.pf ppf "%s=%s" k s
    | `I i -> Fmt.pf ppf "%s=%d" k i
  in
  (* A plain space, not a break hint: a diagnostic stays on one line
     whatever the margin. *)
  Fmt.(list ~sep:(any " ") pp_field) ppf (loc_fields l)

type t = {
  code : string;
  severity : severity;
  pass : string;
  loc : location;
  message : string;
  trail : string list;
}

(* The one authoritative list of codes: passes may only emit these,
   DESIGN.md documents exactly these, and tests enumerate them. *)
let catalogue =
  [
    ( "MHLA001", Error,
      "a subscript's maximum value reaches past the declared dimension \
       extent" );
    ("MHLA002", Error, "a subscript's minimum value is below zero");
    ( "MHLA101", Error,
      "a granted Time-Extension loop is not within the freedom prefix \
       recomputed from writer/reader positions (the prefetch crosses a data \
       dependency)" );
    ( "MHLA102", Error,
      "the prefetch distance of a TE plan exceeds its provisioned buffers \
       (the incoming window overwrites a destination buffer still being \
       read)" );
    ( "MHLA103", Error,
      "a TE plan claims more hidden cycles per issue than the transfer \
       takes" );
    ( "MHLA104", Error,
      "a TE plan targets a block transfer that is not DMA-eligible (no \
       engine, zero issues, or source not the off-chip store)" );
    ( "MHLA201", Error,
      "a layer's recomputed peak occupancy (copy lifetimes plus TE extra \
       buffers) exceeds its capacity" );
    ( "MHLA203", Error,
      "a granted Time-Extension loop's recomputed span does not enclose \
       the lifetime of the transfer it extends (the prefetch buffer \
       would be live during an unrelated program phase and interfere \
       with it)" );
    ( "MHLA204", Error,
      "the TE plans' DMA priorities are not the contiguous sequence \
       0..n-1 in schedule order (transfers would contend for the engine \
       in an undefined order)" );
    ("MHLA301", Warning, "a declared array is never accessed");
    ("MHLA302", Warning, "an array is written but never read");
    ( "MHLA303", Info,
      "a loop iterator appears in no subscript beneath its loop" );
    ("MHLA304", Info, "a loop has a trip count of 1");
    ( "MHLA305", Warning,
      "a chain link's buffer does not shrink the next outer link's (the \
       inner copy is fully shadowed by the larger selected candidate)" );
    ( "MHLA306", Warning,
      "a fetch stream moves at least as many elements as the accesses it \
       serves (reuse factor <= 1)" );
    ( "MHLA401", Info,
      "two DMA-eligible transfers tie on the recomputed scheduling key \
       (the TE grant order, and with it the objective, depends on \
       enumeration order)" );
    ( "MHLA402", Info,
      "a statement both reads and writes overlapping regions of one \
       array (a recurrence: iteration-reordering transforms would change \
       the schedule the objective is computed on)" );
  ]

let known_code code =
  List.exists (fun (c, _, _) -> c = code) catalogue

let make ~code ~severity ~pass ?(loc = no_location) ?(trail = []) message =
  if not (known_code code) then
    Mhla_util.Error.internalf ~context:"Diagnostic.make"
      "code %s is not in the catalogue" code;
  { code; severity; pass; loc; message; trail }

let makef ~code ~severity ~pass ?loc ?trail fmt =
  Fmt.kstr (fun message -> make ~code ~severity ~pass ?loc ?trail message) fmt

let catalogue_entry code =
  List.find_opt (fun (c, _, _) -> c = code) catalogue

let promote_warnings d =
  match d.severity with Warning -> { d with severity = Error } | _ -> d

let pp ppf d =
  let fields = loc_fields d.loc in
  if fields = [] then
    Fmt.pf ppf "%s %a [%s]: %s" d.code pp_severity d.severity d.pass
      d.message
  else
    Fmt.pf ppf "%s %a [%s] %a: %s" d.code pp_severity d.severity d.pass
      pp_location d.loc d.message

let to_json d =
  let loc_fields =
    List.map
      (fun (k, v) ->
        (k, match v with `S s -> Json.str s | `I i -> Json.int i))
      (loc_fields d.loc)
  in
  Json.obj
    ([
       ("code", Json.str d.code);
       ("severity", Json.str (severity_label d.severity));
       ("pass", Json.str d.pass);
       ("location", Json.obj loc_fields);
       ("message", Json.str d.message);
     ]
    @
    match d.trail with
    | [] -> []
    | trail -> [ ("trail", Json.arr (List.map Json.str trail)) ])

(* The total order the report is normalised under: pass, then code,
   then severity, then the rendered location fields, then message and
   trail. Byte-stable whatever order passes emitted in. *)
let compare_for_report a b =
  let loc_key l =
    List.map
      (fun (k, v) ->
        (k, match v with `S s -> s | `I i -> string_of_int i))
      (loc_fields l)
  in
  let cmp =
    compare
      (a.pass, a.code, severity_rank a.severity, loc_key a.loc, a.message,
       a.trail)
      (b.pass, b.code, severity_rank b.severity, loc_key b.loc, b.message,
       b.trail)
  in
  cmp
