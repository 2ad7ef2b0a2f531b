module Error = Mhla_util.Error

type value = Int of int | Float of float | Str of string | Bool of bool

type kind = Span_begin | Span_end | Instant | Counter | Gauge

type event = {
  seq : int;
  ts_ns : int;
  tid : int;
  kind : kind;
  cat : string;
  name : string;
  args : (string * value) list;
}

type active = {
  clock : unit -> int;
  epoch : int;
  a_tid : int;
  mutable last_ts : int;
  mutable next_seq : int;
  mutable events_rev : event list;
  mutable stack : string list;  (* open span names, innermost first *)
  counters : (string, float) Hashtbl.t;
  gauge_names : (string, unit) Hashtbl.t;  (* which counters are gauges *)
  on_event : (event -> unit) option;
}

type t = Noop | Active of active

let noop = Noop

let enabled = function Noop -> false | Active _ -> true

let default_clock () = Int64.to_int (Monotonic_clock.now ())

let collector ?(clock = default_clock) ?(tid = 0) ?on_event () =
  Active
    {
      clock;
      epoch = clock ();
      a_tid = tid;
      last_ts = 0;
      next_seq = 0;
      events_rev = [];
      stack = [];
      counters = Hashtbl.create 16;
      gauge_names = Hashtbl.create 4;
      on_event;
    }

let child t ~tid =
  match t with
  | Noop -> Noop
  | Active a ->
    Active
      {
        clock = a.clock;
        epoch = a.epoch;
        a_tid = tid;
        last_ts = 0;
        next_seq = 0;
        events_rev = [];
        stack = [];
        counters = Hashtbl.create 16;
        gauge_names = Hashtbl.create 4;
        on_event = None;
      }

(* The one recording point: clamp the clock monotone, stamp, buffer,
   tap. Everything observable about a sink funnels through here. *)
let record a kind ~cat ~name args =
  let now = a.clock () - a.epoch in
  let ts = if now > a.last_ts then now else a.last_ts in
  a.last_ts <- ts;
  let e =
    { seq = a.next_seq; ts_ns = ts; tid = a.a_tid; kind; cat; name; args }
  in
  a.next_seq <- a.next_seq + 1;
  a.events_rev <- e :: a.events_rev;
  match a.on_event with None -> () | Some f -> f e

let force_args = function None -> [] | Some f -> f ()

let span_begin t ?(cat = "") ?args name =
  match t with
  | Noop -> ()
  | Active a ->
    record a Span_begin ~cat ~name (force_args args);
    a.stack <- name :: a.stack

let span_end t name =
  match t with
  | Noop -> ()
  | Active a -> (
    match a.stack with
    | innermost :: rest when innermost = name ->
      a.stack <- rest;
      record a Span_end ~cat:"" ~name []
    | innermost :: _ ->
      Error.internalf ~context:"Telemetry.span_end"
        "close %S does not match the innermost open span %S" name innermost
    | [] ->
      Error.internalf ~context:"Telemetry.span_end"
        "close %S with no span open" name)

(* Unwind used by [span] on exceptional exit: close abandoned inner
   spans (innermost first) down to and including [name], keeping the
   event stream well-formed whatever [f] left open. *)
let close_to a name =
  let rec go () =
    match a.stack with
    | [] ->
      Error.internalf ~context:"Telemetry.span"
        "span %S vanished from the open stack" name
    | innermost :: rest ->
      a.stack <- rest;
      record a Span_end ~cat:"" ~name:innermost [];
      if innermost <> name then go ()
  in
  go ()

let span t ?(cat = "") ?args name f =
  match t with
  | Noop -> f ()
  | Active a ->
    record a Span_begin ~cat ~name (force_args args);
    a.stack <- name :: a.stack;
    Fun.protect ~finally:(fun () -> close_to a name) f

let instant t ?(cat = "") ?args name =
  match t with
  | Noop -> ()
  | Active a -> record a Instant ~cat ~name (force_args args)

let count t ?(cat = "") name d =
  match t with
  | Noop -> ()
  | Active a ->
    let v =
      (match Hashtbl.find_opt a.counters name with Some v -> v | None -> 0.)
      +. float_of_int d
    in
    Hashtbl.replace a.counters name v;
    record a Counter ~cat ~name [ (name, Float v) ]

let gauge t ?(cat = "") name v =
  match t with
  | Noop -> ()
  | Active a ->
    Hashtbl.replace a.counters name v;
    Hashtbl.replace a.gauge_names name ();
    record a Gauge ~cat ~name [ (name, Float v) ]

let merge_children t children =
  match t with
  | Noop -> ()
  | Active a ->
    List.iter
      (fun child ->
        match child with
        | Noop -> ()
        | Active c ->
          List.iter
            (fun e ->
              let e = { e with seq = a.next_seq } in
              a.next_seq <- a.next_seq + 1;
              a.events_rev <- e :: a.events_rev;
              if e.ts_ns > a.last_ts then a.last_ts <- e.ts_ns;
              match a.on_event with None -> () | Some f -> f e)
            (List.rev c.events_rev);
          List.iter
            (fun (name, v) ->
              (* Counters accumulate across workers; a gauge keeps the
                 last merged child's value. *)
              if Hashtbl.mem c.gauge_names name then begin
                Hashtbl.replace a.counters name v;
                Hashtbl.replace a.gauge_names name ()
              end
              else
                let prev =
                  match Hashtbl.find_opt a.counters name with
                  | Some p -> p
                  | None -> 0.
                in
                Hashtbl.replace a.counters name (prev +. v))
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.counters []
            |> List.sort compare))
      children

let events = function
  | Noop -> []
  | Active a -> List.rev a.events_rev

let counter_values = function
  | Noop -> []
  | Active a ->
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) a.counters []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

let open_spans = function Noop -> [] | Active a -> a.stack

let kind_label = function
  | Span_begin -> "B"
  | Span_end -> "E"
  | Instant -> "i"
  | Counter | Gauge -> "C"

let pp_value ppf = function
  | Int n -> Fmt.int ppf n
  | Float f -> Fmt.pf ppf "%g" f
  | Str s -> Fmt.string ppf s
  | Bool b -> Fmt.bool ppf b

let pp_event ppf e =
  let pp_arg ppf (k, v) = Fmt.pf ppf "%s=%a" k pp_value v in
  Fmt.pf ppf "[%s] %s %s%a @@%dus"
    (if e.cat = "" then "-" else e.cat)
    (kind_label e.kind) e.name
    Fmt.(list ~sep:nop (any " " ++ pp_arg))
    e.args (e.ts_ns / 1000)
