module Affine = Mhla_ir.Affine
module Array_decl = Mhla_ir.Array_decl
module Program = Mhla_ir.Program

let name = "bounds"

let diag ~code ?loc ?trail fmt =
  Diagnostic.makef ~code ~severity:Diagnostic.Error ~pass:name ?loc ?trail fmt

(* How a subscript's range was derived: each iterator's sweep and
   coefficient, then the resulting closed-form range. *)
let range_trail (ctx : Program.context) e (lo, hi) =
  let trip iter =
    match List.assoc_opt iter ctx.Program.loops with Some t -> t | None -> 1
  in
  List.map
    (fun iter ->
      Printf.sprintf "iterator %s in [0, %d] (coefficient %d)" iter
        (trip iter - 1) (Affine.coeff e iter))
    (Affine.iterators e)
  @ [
      Printf.sprintf "affine value [%d, %d] at statement %s" lo hi
        ctx.Program.stmt.Mhla_ir.Stmt.name;
    ]

let check_access (ctx : Program.context) program k (a : Mhla_ir.Access.t) =
  let stmt = ctx.Program.stmt.Mhla_ir.Stmt.name in
  let loc ?dim () =
    Diagnostic.location ~array:a.Mhla_ir.Access.array ~stmt ~access_index:k
      ?dim ()
  in
  (* [Program.make] rejects an undeclared array and a subscript count
     that differs from the rank, so neither can reach this pass. *)
  let dims =
    match Program.find_array program a.Mhla_ir.Access.array with
    | Some decl -> decl.Array_decl.dims
    | None -> assert false
  in
  let check_dim d ((e, extent), (lo, hi)) =
    let trail () = range_trail ctx e (lo, hi) in
    let out_high =
      if hi >= extent then
        Some
          (diag ~code:"MHLA001" ~loc:(loc ~dim:d ()) ~trail:(trail ())
             "subscript sweeps [%d, %d] but the dimension extent is %d" lo hi
             extent)
      else None
    in
    let out_low =
      if lo < 0 then
        Some
          (diag ~code:"MHLA002" ~loc:(loc ~dim:d ()) ~trail:(trail ())
             "subscript sweeps [%d, %d], below the array" lo hi)
      else None
    in
    List.filter_map Fun.id [ out_high; out_low ]
  in
  List.concat
    (List.mapi check_dim
       (List.combine
          (List.combine a.Mhla_ir.Access.index dims)
          (Mhla_ir.Access.box ctx.Program.loops a)))

let run (s : Pass.subject) =
  Program.fold_stmts s.Pass.program ~init:[] ~f:(fun acc ctx ->
      let here =
        List.concat
          (List.mapi
             (check_access ctx s.Pass.program)
             ctx.Program.stmt.Mhla_ir.Stmt.accesses)
      in
      acc @ here)

let pass =
  {
    Pass.name;
    codes = [ "MHLA001"; "MHLA002" ];
    run;
  }
