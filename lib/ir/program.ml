type node = Loop of loop | Stmt of Stmt.t

and loop = { iter : string; trip : int; body : node list }

type t = { name : string; arrays : Array_decl.t list; body : node list }

type context = { stmt : Stmt.t; loops : (string * int) list }

(* --- validation ------------------------------------------------------- *)

exception Bad of string

let check_unique what names =
  let sorted = List.sort String.compare names in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | [ _ ] | [] -> None
  in
  match dup sorted with
  | Some name -> raise (Bad (Printf.sprintf "duplicate %s %S" what name))
  | None -> ()

let rec collect_iters acc = function
  | Stmt _ -> acc
  | Loop l -> List.fold_left collect_iters (l.iter :: acc) l.body

let rec collect_stmts acc = function
  | Stmt s -> s :: acc
  | Loop l -> List.fold_left collect_stmts acc l.body

let validate name arrays body =
  if name = "" then raise (Bad "empty program name");
  check_unique "array" (List.map (fun (a : Array_decl.t) -> a.name) arrays);
  let iters = List.fold_left collect_iters [] body in
  check_unique "iterator" iters;
  let stmts = List.fold_left collect_stmts [] body in
  check_unique "statement" (List.map (fun (s : Stmt.t) -> s.name) stmts);
  let find_array n =
    List.find_opt (fun (a : Array_decl.t) -> a.name = n) arrays
  in
  let check_access enclosing (s : Stmt.t) (a : Access.t) =
    match find_array a.array with
    | None ->
      raise
        (Bad
           (Printf.sprintf "statement %S accesses undeclared array %S"
              s.name a.array))
    | Some decl ->
      if List.length a.index <> Array_decl.rank decl then
        raise
          (Bad
             (Printf.sprintf
                "statement %S: access to %S has %d subscripts, array has \
                 rank %d"
                s.name a.array (List.length a.index) (Array_decl.rank decl)));
      let check_iter i =
        if not (List.mem i enclosing) then
          raise
            (Bad
               (Printf.sprintf
                  "statement %S: subscript iterator %S is not an enclosing \
                   loop"
                  s.name i))
      in
      List.iter check_iter (Access.iterators a)
  in
  let rec walk enclosing = function
    | Stmt s -> List.iter (check_access enclosing s) s.accesses
    | Loop l ->
      if l.trip <= 0 then
        raise
          (Bad (Printf.sprintf "loop %S has trip %d" l.iter l.trip));
      if l.body = [] then
        raise (Bad (Printf.sprintf "loop %S has an empty body" l.iter));
      List.iter (walk (l.iter :: enclosing)) l.body
  in
  List.iter (walk []) body

let make ~name ~arrays ~body =
  match validate name arrays body with
  | () -> Ok { name; arrays; body }
  | exception Bad msg -> Error (Printf.sprintf "program %S: %s" name msg)

let make_exn ~name ~arrays ~body =
  match make ~name ~arrays ~body with
  | Ok t -> t
  | Error msg ->
    Mhla_util.Error.invalidf ~context:"Program.make_exn" "%s" msg

(* --- traversal -------------------------------------------------------- *)

let fold_stmts t ~init ~f =
  let rec walk loops acc = function
    | Stmt stmt -> f acc { stmt; loops = List.rev loops }
    | Loop l ->
      List.fold_left (walk ((l.iter, l.trip) :: loops)) acc l.body
  in
  List.fold_left (walk []) init t.body

let contexts t =
  List.rev (fold_stmts t ~init:[] ~f:(fun acc ctx -> ctx :: acc))

let executions ctx =
  List.fold_left (fun acc (_, trip) -> acc * trip) 1 ctx.loops

let find_array t name =
  List.find_opt (fun (a : Array_decl.t) -> a.name = name) t.arrays

let find_context t ~stmt =
  List.find_opt (fun ctx -> ctx.stmt.Stmt.name = stmt) (contexts t)

let total_accesses t ~array =
  let count acc ctx =
    let here =
      List.length
        (List.filter
           (fun (a : Access.t) -> a.array = array)
           ctx.stmt.Stmt.accesses)
    in
    acc + (here * executions ctx)
  in
  fold_stmts t ~init:0 ~f:count

let total_work_cycles t =
  fold_stmts t ~init:0 ~f:(fun acc ctx ->
      acc + (ctx.stmt.Stmt.work_cycles * executions ctx))

let total_access_count t =
  fold_stmts t ~init:0 ~f:(fun acc ctx ->
      acc + (List.length ctx.stmt.Stmt.accesses * executions ctx))

let array_names t = List.map (fun (a : Array_decl.t) -> a.name) t.arrays

let stmt_names t =
  List.map (fun ctx -> ctx.stmt.Stmt.name) (contexts t)

let iterator_trip t name =
  let rec search = function
    | Stmt _ -> None
    | Loop l ->
      if l.iter = name then Some l.trip
      else List.find_map search l.body
  in
  List.find_map search t.body

let pp ppf t =
  let rec pp_node indent ppf = function
    | Stmt s -> Fmt.pf ppf "%s%a@," indent Stmt.pp s
    | Loop l ->
      Fmt.pf ppf "%sfor %s in 0..%d:@," indent l.iter (l.trip - 1);
      List.iter (pp_node (indent ^ "  ") ppf) l.body
  in
  Fmt.pf ppf "@[<v>program %s@," t.name;
  List.iter (fun a -> Fmt.pf ppf "  %a@," Array_decl.pp a) t.arrays;
  List.iter (pp_node "  " ppf) t.body;
  Fmt.pf ppf "@]"
