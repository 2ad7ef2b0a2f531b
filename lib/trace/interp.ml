module Error = Mhla_util.Error

type event = { stmt : string; array : string }

type layout = (string * int) list

let align8 n = (n + 7) land lnot 7

let layout (program : Mhla_ir.Program.t) =
  let place (next, acc) (a : Mhla_ir.Array_decl.t) =
    let base = align8 next in
    (base + Mhla_ir.Array_decl.size_bytes a, (a.Mhla_ir.Array_decl.name, base) :: acc)
  in
  let _, placed =
    List.fold_left place (0, []) program.Mhla_ir.Program.arrays
  in
  List.rev placed

let find_decl program array =
  match Mhla_ir.Program.find_array program array with
  | Some d -> d
  | None -> Error.invalidf ~context:"Interp" "unknown array %s" array

(* Row-major offset with bounds checking per dimension. *)
let element_offset (decl : Mhla_ir.Array_decl.t) ~indices =
  let rec walk acc dims indices =
    match (dims, indices) with
    | [], [] -> acc
    | dim :: dims, idx :: indices ->
      if idx < 0 || idx >= dim then
        Error.invalidf ~context:"Interp" "index %d out of bounds 0..%d in %s"
          idx (dim - 1) decl.Mhla_ir.Array_decl.name;
      walk ((acc * dim) + idx) dims indices
    | _, _ ->
      Error.invalidf ~context:"Interp" "rank mismatch on %s"
        decl.Mhla_ir.Array_decl.name
  in
  walk 0 decl.Mhla_ir.Array_decl.dims indices

let address layout program ~array ~indices =
  let decl = find_decl program array in
  let base =
    match List.assoc_opt array layout with
    | Some b -> b
    | None -> Error.invalidf ~context:"Interp" "array not in layout: %s" array
  in
  base + (element_offset decl ~indices * decl.Mhla_ir.Array_decl.element_bytes)

let fold (program : Mhla_ir.Program.t) ~init ~f =
  let bases = layout program in
  let env = Hashtbl.create 16 in
  let lookup name =
    match Hashtbl.find_opt env name with
    | Some v -> v
    | None -> Error.invalidf ~context:"Interp" "free iterator %s" name
  in
  let acc = ref init in
  let run_stmt (s : Mhla_ir.Stmt.t) =
    List.iter
      (fun (a : Mhla_ir.Access.t) ->
        let indices =
          List.map (fun e -> Mhla_ir.Affine.eval e ~env:lookup) a.Mhla_ir.Access.index
        in
        (* Linearising the address bounds-checks every subscript. *)
        ignore
          (address bases program ~array:a.Mhla_ir.Access.array ~indices : int);
        acc :=
          f !acc { stmt = s.Mhla_ir.Stmt.name; array = a.Mhla_ir.Access.array })
      s.Mhla_ir.Stmt.accesses
  in
  let rec run_node = function
    | Mhla_ir.Program.Stmt s -> run_stmt s
    | Mhla_ir.Program.Loop l ->
      for it = 0 to l.Mhla_ir.Program.trip - 1 do
        Hashtbl.replace env l.Mhla_ir.Program.iter it;
        List.iter run_node l.Mhla_ir.Program.body
      done;
      Hashtbl.remove env l.Mhla_ir.Program.iter
  in
  List.iter run_node program.Mhla_ir.Program.body;
  !acc

let count_events program = fold program ~init:0 ~f:(fun n _ -> n + 1)

(* Grouped event counts, in first-seen order. The keys come from the
   event stream itself, so a statement or array the execution never
   reaches simply does not appear. *)
let count_grouped key program =
  let counts =
    fold program ~init:[] ~f:(fun acc event ->
        let k = key event in
        match List.assoc_opt k acc with
        | Some n -> (k, n + 1) :: List.remove_assoc k acc
        | None -> (k, 1) :: acc)
  in
  List.rev counts

let count_by_stmt program = count_grouped (fun e -> e.stmt) program

let count_by_array program = count_grouped (fun e -> e.array) program

(* Sweep the statement's own iteration space (pinning the iterators in
   [fix]) and collect the distinct addresses of one access. *)
let touched_addresses program ~stmt ~access_index ~fix =
  let bases = layout program in
  let ctx =
    match Mhla_ir.Program.find_context program ~stmt with
    | Some c -> c
    | None -> Error.invalidf ~context:"Interp" "unknown statement %s" stmt
  in
  let access =
    match
      List.nth_opt ctx.Mhla_ir.Program.stmt.Mhla_ir.Stmt.accesses access_index
    with
    | Some a -> a
    | None -> Error.invalidf ~context:"Interp" "access index out of range"
  in
  let loops = ctx.Mhla_ir.Program.loops in
  let addresses = Hashtbl.create 256 in
  let rec sweep env = function
    | [] ->
      let lookup name =
        match List.assoc_opt name env with
        | Some v -> v
        | None -> 0
      in
      let indices =
        List.map
          (fun e -> Mhla_ir.Affine.eval e ~env:lookup)
          access.Mhla_ir.Access.index
      in
      Hashtbl.replace addresses
        (address bases program ~array:access.Mhla_ir.Access.array ~indices)
        ()
    | (iter, trip) :: rest -> (
      match List.assoc_opt iter fix with
      | Some v -> sweep ((iter, v) :: env) rest
      | None ->
        for it = 0 to trip - 1 do
          sweep ((iter, it) :: env) rest
        done)
  in
  sweep [] loops;
  List.sort compare (Hashtbl.fold (fun addr () acc -> addr :: acc) addresses [])
