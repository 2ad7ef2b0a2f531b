type direction = Read | Write

type t = { array : string; direction : direction; index : Affine.t list }

let make ~array ~direction ~index =
  if array = "" then
    Mhla_util.Error.invalidf ~context:"Access.make" "empty array name";
  if index = [] then
    Mhla_util.Error.invalidf ~context:"Access.make" "empty index";
  { array; direction; index }

let read array index = make ~array ~direction:Read ~index

let write array index = make ~array ~direction:Write ~index

let is_read t = t.direction = Read

let is_write t = t.direction = Write

let iterators t =
  List.concat_map Affine.iterators t.index
  |> List.sort_uniq String.compare

let box loops t =
  let trip iter =
    match List.assoc_opt iter loops with Some t -> t | None -> 1
  in
  List.map
    (fun e -> (Affine.min_value e ~trip, Affine.max_value e ~trip))
    t.index

let boxes_intersect b1 b2 =
  List.length b1 = List.length b2
  && List.for_all2
       (fun (lo1, hi1) (lo2, hi2) -> lo1 <= hi2 && lo2 <= hi1)
       b1 b2

let pp_direction ppf = function
  | Read -> Fmt.string ppf "R"
  | Write -> Fmt.string ppf "W"

let pp ppf t =
  Fmt.pf ppf "%a %s%a" pp_direction t.direction t.array
    Fmt.(list ~sep:nop (brackets Affine.pp))
    t.index
