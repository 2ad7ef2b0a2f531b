type t = {
  id : string;
  stmt : string;
  access_index : int;
  array : string;
  direction : Mhla_ir.Access.direction;
  level : int;
  refresh_iter : string option;
  footprint_bytes : int;
  accesses_served : int;
  issues : int;
  bytes_per_issue : int;
  total_bytes_full : int;
  total_bytes_delta : int;
  element_bytes : int;
  delta_bytes_per_issue : int;
  share_key : string;
}

type transfer_mode = Full | Delta

let total_bytes mode t =
  match mode with
  | Full -> t.total_bytes_full
  | Delta -> t.total_bytes_delta

let reuse_factor mode t =
  let transferred_elements = total_bytes mode t / t.element_bytes in
  if transferred_elements = 0 then infinity
  else float_of_int t.accesses_served /. float_of_int transferred_elements

let make ~decl ~loops ~stmt ~access_index ~level (access : Mhla_ir.Access.t) =
  let n = List.length loops in
  if level < 0 || level > n then
    Mhla_util.Error.invalidf ~context:"Candidate.make"
      "level %d out of range 0..%d" level n;
  let trip name =
    match List.assoc_opt name loops with
    | Some t -> t
    | None -> 1 (* iterator not enclosing: constant for this access *)
  in
  let fixed, free_loops =
    let rec split i acc = function
      | rest when i = level -> (List.rev acc, rest)
      | x :: rest -> split (i + 1) (x :: acc) rest
      | [] -> (List.rev acc, [])
    in
    split 0 [] loops
  in
  let free name = List.mem_assoc name free_loops in
  let element_bytes = decl.Mhla_ir.Array_decl.element_bytes in
  let footprint_elems = Footprint.elements ~decl ~trip ~free access in
  let footprint_bytes = footprint_elems * element_bytes in
  let executions =
    List.fold_left (fun acc (_, t) -> acc * t) 1 loops
  in
  let issues =
    List.fold_left (fun acc (_, t) -> acc * t) 1 fixed
  in
  let bytes_per_issue = footprint_bytes in
  let total_bytes_full = issues * bytes_per_issue in
  let refresh_iter =
    if level = 0 then None
    else Some (fst (List.nth loops (level - 1)))
  in
  let total_bytes_delta, delta_bytes_per_issue =
    match refresh_iter with
    | None -> (total_bytes_full, bytes_per_issue)
    | Some advance ->
      let overlap_elems =
        Footprint.overlap_elements ~decl ~trip ~free ~advance access
      in
      let delta_bytes = (footprint_elems - overlap_elems) * element_bytes in
      (* Per refresh loop: the first iteration fetches the whole window,
         the remaining trip-1 fetch only the new part. *)
      let outer_sequences =
        List.fold_left (fun acc (_, t) -> acc * t) 1
          (List.filteri (fun i _ -> i < level - 1) loops)
      in
      let refresh_trip = trip advance in
      ( (outer_sequences * bytes_per_issue)
        + (outer_sequences * (refresh_trip - 1) * delta_bytes),
        delta_bytes )
  in
  (* Candidates of the same array are shareable when they cover the
     whole array at level 0 (position-independent) or have literally
     the same subscripts and refresh rhythm. *)
  let share_key =
    let whole_array =
      footprint_bytes = Mhla_ir.Array_decl.size_bytes decl && level = 0
    in
    let array = access.Mhla_ir.Access.array in
    if whole_array then array ^ "@whole"
    else
      String.concat ""
        [ array; "@"; string_of_int level; ":";
          Option.value refresh_iter ~default:""; ":";
          String.concat ";"
            (List.map Mhla_ir.Affine.to_string access.Mhla_ir.Access.index) ]
  in
  {
    id =
      String.concat ""
        [ stmt; "/"; string_of_int access_index; "@"; string_of_int level ];
    stmt;
    access_index;
    array = access.Mhla_ir.Access.array;
    direction = access.Mhla_ir.Access.direction;
    level;
    refresh_iter;
    footprint_bytes;
    accesses_served = executions;
    issues;
    bytes_per_issue;
    total_bytes_full;
    total_bytes_delta;
    element_bytes;
    delta_bytes_per_issue;
    share_key;
  }

let pp ppf t =
  Fmt.pf ppf "%s: %a %s, %dB buf, %d issues x %dB (served %d)" t.id
    Mhla_ir.Access.pp_direction t.direction t.array t.footprint_bytes
    t.issues t.bytes_per_issue t.accesses_served
