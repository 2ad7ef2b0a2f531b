module I = Mhla_util.Interval

type t = {
  stmt_slots : (string, I.t) Hashtbl.t;
  loop_spans : (string, I.t) Hashtbl.t;
  stmt_outermost_loop : (string, string option) Hashtbl.t;
  array_spans : (string, I.t) Hashtbl.t;
  horizon : int;
}

let of_program (program : Mhla_ir.Program.t) =
  let stmt_slots = Hashtbl.create 64 in
  let loop_spans = Hashtbl.create 64 in
  let stmt_outermost_loop = Hashtbl.create 64 in
  let clock = ref 0 in
  (* [outer] is the outermost enclosing iterator, set on first descent. *)
  let rec walk outer = function
    | Mhla_ir.Program.Stmt s ->
      let slot = !clock in
      incr clock;
      Hashtbl.replace stmt_slots s.Mhla_ir.Stmt.name
        (I.make ~lo:slot ~hi:(slot + 1));
      Hashtbl.replace stmt_outermost_loop s.Mhla_ir.Stmt.name outer
    | Mhla_ir.Program.Loop l ->
      let start = !clock in
      let outer =
        match outer with None -> Some l.Mhla_ir.Program.iter | some -> some
      in
      List.iter (walk outer) l.Mhla_ir.Program.body;
      Hashtbl.replace loop_spans l.Mhla_ir.Program.iter
        (I.make ~lo:start ~hi:!clock)
  in
  List.iter (walk None) program.Mhla_ir.Program.body;
  (* Each array's lifetime is the hull of the slots of the statements
     touching it, folded once here rather than per query. *)
  let array_spans = Hashtbl.create 16 in
  Mhla_ir.Program.fold_stmts program ~init:() ~f:(fun () ctx ->
      let stmt = ctx.Mhla_ir.Program.stmt in
      let slot = Hashtbl.find stmt_slots stmt.Mhla_ir.Stmt.name in
      List.iter
        (fun (a : Mhla_ir.Access.t) ->
          let span =
            Option.value ~default:(I.make ~lo:0 ~hi:0)
              (Hashtbl.find_opt array_spans a.Mhla_ir.Access.array)
          in
          Hashtbl.replace array_spans a.Mhla_ir.Access.array (I.hull span slot))
        stmt.Mhla_ir.Stmt.accesses);
  { stmt_slots; loop_spans; stmt_outermost_loop; array_spans; horizon = !clock }

let horizon t = t.horizon

let stmt_interval t name =
  match Hashtbl.find_opt t.stmt_slots name with
  | Some iv -> iv
  | None -> raise Not_found

let loop_interval t iter =
  match Hashtbl.find_opt t.loop_spans iter with
  | Some iv -> iv
  | None -> raise Not_found

let array_interval t array =
  match Hashtbl.find_opt t.array_spans array with
  | Some iv -> iv
  | None -> I.make ~lo:0 ~hi:0

let candidate_interval t (c : Mhla_reuse.Candidate.t) =
  match c.Mhla_reuse.Candidate.refresh_iter with
  | Some iter -> loop_interval t iter
  | None -> (
    match Hashtbl.find_opt t.stmt_outermost_loop c.Mhla_reuse.Candidate.stmt with
    | Some (Some outer) -> loop_interval t outer
    | Some None | None -> stmt_interval t c.Mhla_reuse.Candidate.stmt)
