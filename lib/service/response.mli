(** One structured answer of the JSON wire format.

    The executor's core invariant is {e exactly one response per
    submitted request}, whatever happened to it — solved, rejected at
    the door, killed by its deadline, or shed under backpressure. Every
    outcome is a value of this one type, so callers never have to
    pattern-match on exceptions escaping the service.

    Wire shapes:

    {v
    { "id": "req-0", "seq": 0, "status": "ok", "elapsed_ns": 812345,
      "result": { ... Report.result_to_json ... },
      "robustness": { ... },                     // only when requested
      "verify": { ... } }                        // only under live verification
    { "id": "req-1", "seq": 1, "status": "error", "code": "decode",
      "message": "$.arch: expected an object", "elapsed_ns": 1234 }
    { "id": "req-2", "seq": 2, "status": "timeout", "code": "deadline",
      "message": "...", "elapsed_ns": 250000000 }
    { "id": "req-3", "seq": 3, "status": "shed", "code": "backpressure",
      "message": "queue full (depth 4)", "elapsed_ns": 90 }
    v}

    [id] is [""] when the request was too broken to carry one. *)

type status = Ok | Error | Timeout | Shed

type t = {
  id : string;  (** [""] when unsalvageable *)
  seq : int;  (** submission order, the exactly-once key *)
  status : status;
  code : string option;
      (** diagnostic class on non-[Ok]: ["json-parse"], ["decode"],
          ["oversized"], ["verify"], ["invalid input"], ["internal"],
          ["exception"],
          ["deadline"], ["backpressure"] *)
  message : string option;
  elapsed_ns : int;  (** submit-to-answer, queueing included *)
  result : Mhla_util.Json.t option;  (** the solve payload on [Ok] *)
  robustness : Mhla_util.Json.t option;
      (** fault-injection report, when the request asked for one *)
  verify : Mhla_util.Json.t option;
      (** the verification report of the response's own
          solution (a {!Mhla_analysis.Verify.report_to_json} document),
          when the service runs with live verification *)
}

val ok :
  ?robustness:Mhla_util.Json.t ->
  ?verify:Mhla_util.Json.t ->
  id:string ->
  seq:int ->
  elapsed_ns:int ->
  Mhla_util.Json.t ->
  t

val error :
  id:string -> seq:int -> elapsed_ns:int -> code:string -> string -> t

val timeout : id:string -> seq:int -> elapsed_ns:int -> string -> t
(** Pre-filled [code = "deadline"]. *)

val shed : id:string -> seq:int -> elapsed_ns:int -> string -> t
(** Pre-filled [code = "backpressure"]. *)

val status_name : status -> string
(** ["ok"], ["error"], ["timeout"], ["shed"]. *)

val to_json : t -> Mhla_util.Json.t

