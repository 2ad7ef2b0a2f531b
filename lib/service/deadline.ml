module Error = Mhla_util.Error

(* CLOCK_MONOTONIC: wall-clock steps (NTP, manual resets) neither fire
   deadlines early nor hold them back. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let after_ms ms =
  if ms < 0 then
    Error.invalidf ~context:"Deadline.after_ms"
      ~hint:"a deadline must be a non-negative millisecond budget"
      "negative deadline (%d ms)" ms;
  now_ns () + (ms * 1_000_000)

let expired ~deadline_ns = now_ns () > deadline_ns

let checkpoint ~context ~deadline_ns () =
  if expired ~deadline_ns then
    Error.deadlinef ~context
      ~hint:"raise the deadline budget or simplify the request"
      "deadline exceeded (%d ms past due)"
      (max 0 ((now_ns () - deadline_ns) / 1_000_000))
