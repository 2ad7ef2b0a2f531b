let require_non_empty name = function
  | [] -> Error.invalidf ~context:name "empty list"
  | samples -> samples

let mean samples =
  let samples = require_non_empty "Stats.mean" samples in
  List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples)

let percentile samples ~p =
  let samples = require_non_empty "Stats.percentile" samples in
  if p < 0. || p > 100. then
    Error.invalidf ~context:"Stats.percentile" "p out of range (got %g)" p;
  let sorted = List.sort compare samples in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
  end

let percent_gain ~baseline ~improved =
  if baseline = 0. then
    Error.invalidf ~context:"Stats.percent_gain" "zero baseline";
  (baseline -. improved) /. baseline *. 100.
