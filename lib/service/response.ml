module Json = Mhla_util.Json

type status = Ok | Error | Timeout | Shed

type t = {
  id : string;
  seq : int;
  status : status;
  code : string option;
  message : string option;
  elapsed_ns : int;
  result : Json.t option;
  robustness : Json.t option;
  verify : Json.t option;
}

let ok ?robustness ?verify ~id ~seq ~elapsed_ns result =
  {
    id;
    seq;
    status = Ok;
    code = None;
    message = None;
    elapsed_ns;
    result = Some result;
    robustness;
    verify;
  }

let error ~id ~seq ~elapsed_ns ~code message =
  {
    id;
    seq;
    status = Error;
    code = Some code;
    message = Some message;
    elapsed_ns;
    result = None;
    robustness = None;
    verify = None;
  }

let timeout ~id ~seq ~elapsed_ns message =
  { (error ~id ~seq ~elapsed_ns ~code:"deadline" message) with status = Timeout }

let shed ~id ~seq ~elapsed_ns message =
  { (error ~id ~seq ~elapsed_ns ~code:"backpressure" message) with
    status = Shed }

let status_name = function
  | Ok -> "ok"
  | Error -> "error"
  | Timeout -> "timeout"
  | Shed -> "shed"

let to_json t =
  Json.obj
    ([ ("id", Json.str t.id);
       ("seq", Json.int t.seq);
       ("status", Json.str (status_name t.status)) ]
    @ (match t.code with
      | None -> []
      | Some c -> [ ("code", Json.str c) ])
    @ (match t.message with
      | None -> []
      | Some m -> [ ("message", Json.str m) ])
    @ [ ("elapsed_ns", Json.int t.elapsed_ns) ]
    @ (match t.result with
      | None -> []
      | Some r -> [ ("result", r) ])
    @ (match t.robustness with
      | None -> []
      | Some r -> [ ("robustness", r) ])
    @
    match t.verify with
    | None -> []
    | Some v -> [ ("verify", v) ])
