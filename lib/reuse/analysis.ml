type access_ref = { stmt : string; index : int }

let pp_access_ref ppf r = Fmt.pf ppf "%s/%d" r.stmt r.index

let compare_access_ref a b =
  match String.compare a.stmt b.stmt with
  | 0 -> compare a.index b.index
  | c -> c

type info = {
  ref_ : access_ref;
  array : string;
  decl : Mhla_ir.Array_decl.t;
  direction : Mhla_ir.Access.direction;
  executions : int;
  loops : (string * int) list;
  candidates : Candidate.t list;
}

let info_of_access program (ctx : Mhla_ir.Program.context) index
    (access : Mhla_ir.Access.t) =
  let decl =
    match Mhla_ir.Program.find_array program access.Mhla_ir.Access.array with
    | Some d -> d
    | None -> assert false (* validated at Program.make *)
  in
  let stmt = ctx.Mhla_ir.Program.stmt.Mhla_ir.Stmt.name in
  let loops = ctx.Mhla_ir.Program.loops in
  let candidates =
    Candidate.of_access ~decl ~loops ~stmt ~access_index:index access
  in
  {
    ref_ = { stmt; index };
    array = access.Mhla_ir.Access.array;
    decl;
    direction = access.Mhla_ir.Access.direction;
    executions = Mhla_ir.Program.executions ctx;
    loops;
    candidates;
  }

let analyze program =
  let per_ctx acc (ctx : Mhla_ir.Program.context) =
    let accesses = ctx.Mhla_ir.Program.stmt.Mhla_ir.Stmt.accesses in
    let infos = List.mapi (info_of_access program ctx) accesses in
    List.rev_append infos acc
  in
  List.rev (Mhla_ir.Program.fold_stmts program ~init:[] ~f:per_ctx)

let find infos ref_ =
  List.find_opt (fun i -> compare_access_ref i.ref_ ref_ = 0) infos

let useful_candidates info =
  let keep (kept, smallest) (c : Candidate.t) =
    if c.Candidate.level = 0 || c.Candidate.footprint_bytes < smallest then
      (c :: kept, min smallest c.Candidate.footprint_bytes)
    else (kept, smallest)
  in
  let kept, _ = List.fold_left keep ([], max_int) info.candidates in
  List.rev kept
