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

let of_access ~decl ~loops ~stmt ~access_index (access : Mhla_ir.Access.t) =
  let trip name =
    match List.assoc_opt name loops with
    | Some t -> t
    | None -> 1 (* iterator not enclosing: constant for this access *)
  in
  let array = access.Mhla_ir.Access.array in
  let element_bytes = decl.Mhla_ir.Array_decl.element_bytes in
  let array_bytes = Mhla_ir.Array_decl.size_bytes decl in
  let executions = List.fold_left (fun acc (_, t) -> acc * t) 1 loops in
  (* The text every level's id and share key repeat, built once. *)
  let id_prefix =
    String.concat "" [ stmt; "/"; string_of_int access_index; "@" ]
  in
  let subscripts =
    String.concat ";"
      (List.map Mhla_ir.Affine.to_string access.Mhla_ir.Access.index)
  in
  (* The candidate at [level], whose fixed loops run [issues] combined
     iterations ([outer] of them outside the refresh loop) and whose
     [free_loops] sweep inside one buffer fill. *)
  let candidate level ~issues ~outer ~refresh_iter free_loops =
    let free name = List.mem_assoc name free_loops in
    let footprint_elems = Footprint.elements ~decl ~trip ~free access in
    let footprint_bytes = footprint_elems * element_bytes in
    let bytes_per_issue = footprint_bytes in
    let total_bytes_full = issues * bytes_per_issue in
    let total_bytes_delta, delta_bytes_per_issue =
      match refresh_iter with
      | None -> (total_bytes_full, bytes_per_issue)
      | Some advance ->
        let overlap_elems =
          Footprint.overlap_elements ~decl ~trip ~free ~advance access
        in
        let delta_bytes = (footprint_elems - overlap_elems) * element_bytes in
        (* Per refresh loop: the first iteration fetches the whole
           window, the remaining trip-1 fetch only the new part. *)
        ( (outer * bytes_per_issue)
          + (outer * (trip advance - 1) * delta_bytes),
          delta_bytes )
    in
    let level_text = string_of_int level in
    (* Candidates of the same array are shareable when they cover the
       whole array at level 0 (position-independent) or have literally
       the same subscripts and refresh rhythm. *)
    let share_key =
      if footprint_bytes = array_bytes && level = 0 then array ^ "@whole"
      else
        String.concat ""
          [ array; "@"; level_text; ":";
            Option.value refresh_iter ~default:""; ":"; subscripts ]
    in
    {
      id = id_prefix ^ level_text;
      stmt;
      access_index;
      array;
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
  in
  (* Level [level + 1] fixes the first of [free_loops] and refreshes at
     its top. *)
  let rec from level ~issues ~outer ~refresh_iter free_loops =
    let c = candidate level ~issues ~outer ~refresh_iter free_loops in
    match free_loops with
    | [] -> [ c ]
    | (iter, t) :: inner ->
      c
      :: from (level + 1) ~issues:(issues * t) ~outer:issues
           ~refresh_iter:(Some iter) inner
  in
  from 0 ~issues:1 ~outer:1 ~refresh_iter:None loops
