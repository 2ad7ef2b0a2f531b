module Access = Mhla_ir.Access
module Affine = Mhla_ir.Affine
module Array_decl = Mhla_ir.Array_decl
module Program = Mhla_ir.Program
module Stmt = Mhla_ir.Stmt

let with_accesses (s : Stmt.t) accesses =
  Stmt.make ~name:s.Stmt.name ~work_cycles:s.Stmt.work_cycles ~accesses

(* Drop loops whose body became empty, recursively. *)
let rec prune nodes =
  List.filter_map
    (function
      | Program.Loop l ->
        let body = prune l.Program.body in
        if body = [] then None else Some (Program.Loop { l with Program.body })
      | Program.Stmt _ as s -> Some s)
    nodes

let rec all_paths prefix nodes =
  List.concat
    (List.mapi
       (fun j n ->
         let path = prefix @ [ j ] in
         match n with
         | Program.Loop l -> path :: all_paths path l.Program.body
         | Program.Stmt _ -> [ path ])
       nodes)

let rec node_at path nodes =
  match path with
  | [] -> None
  | [ k ] -> List.nth_opt nodes k
  | k :: rest -> (
    match List.nth_opt nodes k with
    | Some (Program.Loop l) -> node_at rest l.Program.body
    | _ -> None)

(* Replace the node at [path] by [f node] — an empty list deletes it, a
   longer list splices (loop inlining). *)
let rec edit_at path f nodes =
  match path with
  | [] -> nodes
  | [ k ] ->
    List.concat (List.mapi (fun j n -> if j = k then f n else [ n ]) nodes)
  | k :: rest ->
    List.mapi
      (fun j n ->
        if j <> k then n
        else
          match n with
          | Program.Loop l ->
            Program.Loop { l with Program.body = edit_at rest f l.Program.body }
          | Program.Stmt _ -> n)
      nodes

(* Substitute [iter := 0] in every subscript of a subtree: the
   subscript rewrite that makes loop inlining sound. *)
let rec subst_iter ~iter nodes =
  List.map
    (function
      | Program.Loop l ->
        Program.Loop { l with Program.body = subst_iter ~iter l.Program.body }
      | Program.Stmt s ->
        let accesses =
          List.map
            (fun (a : Access.t) ->
              Access.make ~array:a.Access.array ~direction:a.Access.direction
                ~index:
                  (List.map
                     (Affine.subst ~iter ~replacement:(Affine.const 0))
                     a.Access.index))
            s.Stmt.accesses
        in
        Program.Stmt (with_accesses s accesses))
    nodes

(* Remove dimension [d] from array [array]'s accesses everywhere. *)
let rec drop_dim ~array ~d nodes =
  List.map
    (function
      | Program.Loop l ->
        Program.Loop { l with Program.body = drop_dim ~array ~d l.Program.body }
      | Program.Stmt s ->
        let accesses =
          List.map
            (fun (a : Access.t) ->
              if a.Access.array <> array then a
              else
                Access.make ~array ~direction:a.Access.direction
                  ~index:(List.filteri (fun k _ -> k <> d) a.Access.index))
            s.Stmt.accesses
        in
        Program.Stmt (with_accesses s accesses))
    nodes

(* Rebuild an edited body into a valid program: prune empty loops,
   recompute minimal array extents from the surviving subscripts, drop
   declarations that lost their last access. Returns [None] when the
   edit produced something unbuildable (empty program, negative
   subscript minimum, rank mismatch, validation failure). *)
let rebuild (original : Program.t) body =
  let body = prune body in
  if body = [] then None
  else begin
    let rec trips acc = function
      | [] -> acc
      | Program.Loop l :: rest ->
        trips (trips ((l.Program.iter, l.Program.trip) :: acc) l.Program.body)
          rest
      | Program.Stmt _ :: rest -> trips acc rest
    in
    let trip_alist = trips [] body in
    let trip_of name =
      match List.assoc_opt name trip_alist with Some t -> t | None -> 1
    in
    let tbl : (string, int array) Hashtbl.t = Hashtbl.create 8 in
    let ok = ref true in
    let record (a : Access.t) =
      let rank = List.length a.Access.index in
      let dims =
        match Hashtbl.find_opt tbl a.Access.array with
        | Some d ->
          if Array.length d <> rank then ok := false;
          d
        | None ->
          let d = Array.make rank 1 in
          Hashtbl.add tbl a.Access.array d;
          d
      in
      if Array.length dims = rank then
        List.iteri
          (fun d e ->
            if Affine.min_value e ~trip:trip_of < 0 then ok := false
            else begin
              let needed = 1 + Affine.max_value e ~trip:trip_of in
              if needed > dims.(d) then dims.(d) <- needed
            end)
          a.Access.index
    in
    let rec walk = function
      | [] -> ()
      | Program.Loop l :: rest ->
        walk l.Program.body;
        walk rest
      | Program.Stmt s :: rest ->
        List.iter record s.Stmt.accesses;
        walk rest
    in
    walk body;
    if not !ok then None
    else begin
      let arrays =
        List.filter_map
          (fun (a : Array_decl.t) ->
            match Hashtbl.find_opt tbl a.Array_decl.name with
            | None -> None
            | Some dims ->
              Some
                (Array_decl.make ~name:a.Array_decl.name
                   ~dims:(Array.to_list dims)
                   ~element_bytes:a.Array_decl.element_bytes))
          original.Program.arrays
      in
      match Program.make ~name:original.Program.name ~arrays ~body with
      | Ok p -> Some p
      | Error _ -> None
    end
  end

(* All candidate edits of a program, biggest reductions first. Each is
   a thunk returning the rebuilt program (or [None] when unbuildable).
   Every candidate differs structurally from its parent and strictly
   decreases a well-founded size measure, so greedy iteration
   terminates without relying on the attempt cap. *)
let candidates (p : Program.t) =
  let body = p.Program.body in
  let paths = all_paths [] body in
  let rebuildo b () = rebuild p b in
  let deletes =
    List.map (fun path -> rebuildo (edit_at path (fun _ -> []) body)) paths
  in
  let inlines =
    List.filter_map
      (fun path ->
        match node_at path body with
        | Some (Program.Loop _) ->
          Some
            (rebuildo
               (edit_at path
                  (function
                    | Program.Loop l ->
                      subst_iter ~iter:l.Program.iter l.Program.body
                    | n -> [ n ])
                  body))
        | _ -> None)
      paths
  in
  let trip_edits =
    List.concat_map
      (fun path ->
        match node_at path body with
        | Some (Program.Loop l) when l.Program.trip >= 2 ->
          let set t =
            rebuildo
              (edit_at path
                 (function
                   | Program.Loop l -> [ Program.Loop { l with Program.trip = t } ]
                   | n -> [ n ])
                 body)
          in
          let half = l.Program.trip / 2 in
          let dec = l.Program.trip - 1 in
          if half = dec then [ set half ] else [ set half; set dec ]
        | _ -> [])
      paths
  in
  let dim_edits =
    List.concat_map
      (fun (a : Array_decl.t) ->
        let rank = Array_decl.rank a in
        if rank < 2 then []
        else
          List.init rank (fun d ->
              rebuildo (drop_dim ~array:a.Array_decl.name ~d body)))
      p.Program.arrays
  in
  let stmt_edits =
    List.concat_map
      (fun path ->
        match node_at path body with
        | Some (Program.Stmt s) ->
          let mk s' = rebuildo (edit_at path (fun _ -> [ Program.Stmt s' ]) body) in
          let accs = s.Stmt.accesses in
          let drop_access =
            List.mapi
              (fun j _ -> mk (with_accesses s (List.filteri (fun k _ -> k <> j) accs)))
              accs
          in
          let subscript_edits =
            List.concat
              (List.mapi
                 (fun j (a : Access.t) ->
                   List.concat
                     (List.mapi
                        (fun d e ->
                          let repl e' =
                            let index =
                              List.mapi
                                (fun k ek -> if k = d then e' else ek)
                                a.Access.index
                            in
                            let a' =
                              Access.make ~array:a.Access.array
                                ~direction:a.Access.direction ~index
                            in
                            mk
                              (with_accesses s
                                 (List.mapi
                                    (fun k ak -> if k = j then a' else ak)
                                    accs))
                          in
                          let its = Affine.iterators e in
                          let drops =
                            List.map
                              (fun it ->
                                repl
                                  (Affine.subst ~iter:it
                                     ~replacement:(Affine.const 0) e))
                              its
                          in
                          let halves =
                            List.filter_map
                              (fun it ->
                                let c = Affine.coeff e it in
                                if abs c >= 2 then
                                  Some
                                    (repl
                                       (Affine.add
                                          (Affine.subst ~iter:it
                                             ~replacement:(Affine.const 0) e)
                                          (Affine.var ~coeff:(c / 2) it)))
                                else None)
                              its
                          in
                          let k = Affine.constant_part e in
                          let const_edits =
                            if k <> 0 then [ repl (Affine.offset ((k / 2) - k) e) ]
                            else []
                          in
                          drops @ halves @ const_edits)
                        a.Access.index))
                 accs)
          in
          let work_edits =
            if s.Stmt.work_cycles >= 1 then
              [
                mk
                  (Stmt.make ~name:s.Stmt.name
                     ~work_cycles:(s.Stmt.work_cycles / 2) ~accesses:accs);
              ]
            else []
          in
          drop_access @ subscript_edits @ work_edits
        | _ -> [])
      paths
  in
  deletes @ inlines @ trip_edits @ dim_edits @ stmt_edits

(* A safety stop only: every accepted edit strictly shrinks the program,
   so termination does not depend on it. *)
let max_attempts = 20_000

let run ~predicate program =
  if not (predicate program) then program
  else begin
    let attempts = ref 0 in
    let current = ref program in
    let progress = ref true in
    while !progress && !attempts < max_attempts do
      progress := false;
      let rec try_cands = function
        | [] -> ()
        | c :: rest ->
          if !attempts >= max_attempts then ()
          else begin
            incr attempts;
            match c () with
            | Some cand when predicate cand ->
              current := cand;
              progress := true
            | _ -> try_cands rest
          end
      in
      try_cands (candidates !current)
    done;
    !current
  end
