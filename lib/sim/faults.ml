module Error = Mhla_util.Error
module Prng = Mhla_util.Prng

type jitter =
  | No_jitter
  | Uniform of { max_extra_cycles : int }

type t = {
  seed : int64;
  jitter : jitter;
  failure_permille : int;
  max_retries : int;
  deadline_patience : int option;
}

let none =
  {
    seed = 0L;
    jitter = No_jitter;
    failure_permille = 0;
    max_retries = 0;
    deadline_patience = None;
  }

let validate t =
  let reject fmt = Error.invalidf ~context:"Faults.validate" fmt in
  (match t.jitter with
  | No_jitter -> ()
  | Uniform { max_extra_cycles } ->
    if max_extra_cycles < 0 then
      reject "jitter max_extra_cycles must be >= 0 (got %d)" max_extra_cycles);
  if t.failure_permille < 0 || t.failure_permille > 1000 then
    reject "failure_permille must be in 0..1000 (got %d)" t.failure_permille;
  if t.max_retries < 0 then
    reject "max_retries must be >= 0 (got %d)" t.max_retries;
  match t.deadline_patience with
  | Some d when d < 0 -> reject "deadline_patience must be >= 0 (got %d)" d
  | _ -> ()

let make ?(jitter = No_jitter) ?(failure_permille = 0) ?(max_retries = 3)
    ?deadline_patience ~seed () =
  let t = { seed; jitter; failure_permille; max_retries; deadline_patience } in
  validate t;
  t

(* One throwaway generator per (purpose, transfer, attempt): the draw
   for a given attempt never depends on how many draws other transfers
   made, so traces stay reproducible under reordering. splitmix64's
   output function scrambles the derived seed. *)
let derive t ~salt ~transfer ~attempt =
  let open Int64 in
  let z = add t.seed (mul 0x9E3779B97F4A7C15L (of_int (transfer + 1))) in
  let z = add z (mul 0xBF58476D1CE4E5B9L (of_int (attempt + 1))) in
  let z = add z (mul 0x94D049BB133111EBL (of_int (salt + 1))) in
  Prng.create ~seed:z

let jitter_salt = 0

let failure_salt = 1

let jitter_cycles t ~transfer ~attempt =
  match t.jitter with
  | No_jitter -> 0
  | Uniform { max_extra_cycles } ->
    if max_extra_cycles = 0 then 0
    else
      Prng.int
        (derive t ~salt:jitter_salt ~transfer ~attempt)
        ~bound:(max_extra_cycles + 1)

let attempt_fails t ~transfer ~attempt =
  t.failure_permille > 0
  && Prng.int (derive t ~salt:failure_salt ~transfer ~attempt) ~bound:1000
     < t.failure_permille

let backoff_base_cycles = 4

let backoff_cap_cycles = 64

(* Past four doublings the cap has won; clamping the shift keeps it
   from overflowing. *)
let backoff_cycles ~attempt =
  min backoff_cap_cycles (backoff_base_cycles lsl min attempt 4)

let pp_jitter ppf = function
  | No_jitter -> Fmt.string ppf "none"
  | Uniform { max_extra_cycles } ->
    Fmt.pf ppf "uniform(0..%d)" max_extra_cycles

let pp ppf t =
  Fmt.pf ppf
    "@[<h>faults: seed %Ld, jitter %a, failure %d/1000, retries %d \
     (backoff %d..%d)%a@]"
    t.seed pp_jitter t.jitter t.failure_permille t.max_retries backoff_base_cycles backoff_cap_cycles
    (Fmt.option (fun ppf d -> Fmt.pf ppf ", patience %d" d))
    t.deadline_patience
