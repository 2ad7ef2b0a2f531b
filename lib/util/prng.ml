type t = { mutable state : int64 }

let create ~seed = { state = seed }

let copy t = { state = t.state }

(* splitmix64 (Steele, Lea, Flood 2014): one addition and three
   xor-shift-multiply rounds; passes BigCrush and is trivially
   seedable, which is all we need for reproducible workloads. *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t ~bound =
  if bound <= 0 then
    Error.invalidf ~context:"Prng.int" "bound must be positive (got %d)" bound;
  let mask = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let int_in t ~lo ~hi =
  if hi < lo then Error.invalidf ~context:"Prng.int_in" "hi (%d) < lo (%d)" hi lo;
  lo + int t ~bound:(hi - lo + 1)

let float t =
  let bits53 = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits53 /. 9007199254740992.0

let bool t = Int64.logand (next_int64 t) 1L = 1L

let pick t = function
  | [] -> Error.invalidf ~context:"Prng.pick" "empty list"
  | items -> List.nth items (int t ~bound:(List.length items))
