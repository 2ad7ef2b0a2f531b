module String_map = Map.Make (String)

(* Canonical form: map iterator -> non-zero coefficient, plus constant. *)
type t = { coeffs : int String_map.t; const : int }

let const c = { coeffs = String_map.empty; const = c }

let var ?(coeff = 1) name =
  if coeff = 0 then const 0
  else { coeffs = String_map.singleton name coeff; const = 0 }

let add a b =
  let merge _ ca cb =
    match (ca, cb) with
    | Some ca, Some cb -> if ca + cb = 0 then None else Some (ca + cb)
    | (Some _ as c), None | None, (Some _ as c) -> c
    | None, None -> None
  in
  { coeffs = String_map.merge merge a.coeffs b.coeffs;
    const = a.const + b.const }

let scale k e =
  if k = 0 then const 0
  else
    { coeffs = String_map.map (fun c -> k * c) e.coeffs;
      const = k * e.const }

let offset k e = { e with const = e.const + k }

let constant_part e = e.const

let coeff e name =
  match String_map.find_opt name e.coeffs with Some c -> c | None -> 0

let iterators e = List.map fst (String_map.bindings e.coeffs)

let eval e ~env =
  String_map.fold (fun name c acc -> acc + (c * env name)) e.coeffs e.const

let extent e ~trip ~free =
  let widen name c acc =
    if not (free name) then acc
    else begin
      let n = trip name in
      if n <= 0 then
        Mhla_util.Error.invalidf ~context:"Affine.extent"
          "iterator %s has trip %d" name n;
      acc + (abs c * (n - 1))
    end
  in
  String_map.fold widen e.coeffs 0

let checked_trip ~context trip name =
  let n = trip name in
  if n <= 0 then
    Mhla_util.Error.invalidf ~context "iterator %s has trip %d" name n;
  n

let min_value e ~trip =
  let lower name c acc =
    let n = checked_trip ~context:"Affine.min_value" trip name in
    if c < 0 then acc + (c * (n - 1)) else acc
  in
  String_map.fold lower e.coeffs e.const

let max_value e ~trip =
  let upper name c acc =
    let n = checked_trip ~context:"Affine.max_value" trip name in
    if c > 0 then acc + (c * (n - 1)) else acc
  in
  String_map.fold upper e.coeffs e.const

let subst ~iter ~replacement e =
  let c = coeff e iter in
  if c = 0 then e
  else begin
    let without = { e with coeffs = String_map.remove iter e.coeffs } in
    add without (scale c replacement)
  end

let rename f e =
  let add_renamed name c (sources, coeffs) =
    let name' = f name in
    (match String_map.find_opt name' sources with
    | Some other ->
      Mhla_util.Error.invalidf ~context:"Affine.rename"
        ~hint:"use distinct target names for every iterator"
        "mapping is not injective: %s and %s both rename to %s" other name
        name'
    | None -> ());
    (String_map.add name' name sources, String_map.add name' c coeffs)
  in
  let _, coeffs =
    String_map.fold add_renamed e.coeffs (String_map.empty, String_map.empty)
  in
  { e with coeffs }

let equal a b = a.const = b.const && String_map.equal ( = ) a.coeffs b.coeffs

let compare a b =
  match compare a.const b.const with
  | 0 -> String_map.compare Stdlib.compare a.coeffs b.coeffs
  | c -> c

let to_string e =
  let term (name, c) =
    if c = 1 then name else string_of_int c ^ "*" ^ name
  in
  let terms =
    String.concat " + " (List.map term (String_map.bindings e.coeffs))
  in
  if terms = "" then string_of_int e.const
  else if e.const = 0 then terms
  else terms ^ " + " ^ string_of_int e.const

let pp ppf e = Fmt.string ppf (to_string e)
