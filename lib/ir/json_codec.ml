module Json = Mhla_util.Json
module Error = Mhla_util.Error

let fail ~path fmt =
  Error.invalidf ~context:"Json_codec" ("%s: " ^^ fmt) path

(* --- decoding helpers -------------------------------------------------- *)

let kind_name : Json.t -> string = function
  | Json.Obj _ -> "object"
  | Json.Arr _ -> "array"
  | Json.Str _ -> "string"
  | Json.Int _ -> "int"
  | Json.Float _ -> "float"
  | Json.Bool _ -> "bool"
  | Json.Null -> "null"

let as_obj ~path = function
  | Json.Obj fields -> fields
  | j -> fail ~path "expected an object, found %s" (kind_name j)

let as_arr ~path = function
  | Json.Arr items -> items
  | j -> fail ~path "expected an array, found %s" (kind_name j)

let as_str ~path = function
  | Json.Str s -> s
  | j -> fail ~path "expected a string, found %s" (kind_name j)

let as_int ~path = function
  | Json.Int k -> k
  | j -> fail ~path "expected an integer, found %s" (kind_name j)

(* A size or trip count the IR cannot hold is a decode error at its own
   path, not a failure from [Array_decl.make] or [Program.make_exn]
   that names no field. *)
let as_positive ~path j =
  let k = as_int ~path j in
  if k <= 0 then fail ~path "must be > 0 (got %d)" k;
  k

let field ~path fields name =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> fail ~path "missing field %S" name

(* Unknown fields are rejected: a misspelled optional knob silently
   ignored is the classic wire-format failure mode. *)
let check_fields ~path ~allowed fields =
  List.iter
    (fun (name, _) ->
      if not (List.mem name allowed) then
        fail ~path "unknown field %S (expected one of: %s)" name
          (String.concat ", " allowed))
    fields

let sub path fmt = Printf.ksprintf (fun s -> path ^ s) fmt

(* --- affine ------------------------------------------------------------ *)

let affine_to_json e =
  Json.obj
    [ ("const", Json.int (Affine.constant_part e));
      ( "terms",
        Json.arr
          (List.map
             (fun it ->
               Json.obj
                 [ ("iter", Json.str it);
                   ("coeff", Json.int (Affine.coeff e it)) ])
             (Affine.iterators e)) ) ]

let affine_of_json ~path j =
  let fields = as_obj ~path j in
  check_fields ~path ~allowed:[ "const"; "terms" ] fields;
  let const = as_int ~path:(sub path ".const") (field ~path fields "const") in
  let terms =
    as_arr ~path:(sub path ".terms") (field ~path fields "terms")
  in
  List.fold_left
    (fun acc (k, term) ->
      let path = sub path ".terms[%d]" k in
      let fields = as_obj ~path term in
      check_fields ~path ~allowed:[ "iter"; "coeff" ] fields;
      let iter = as_str ~path:(sub path ".iter") (field ~path fields "iter") in
      let coeff =
        as_int ~path:(sub path ".coeff") (field ~path fields "coeff")
      in
      if Affine.coeff acc iter <> 0 then
        fail ~path "iterator %S appears in two terms" iter;
      Affine.add acc (Affine.var ~coeff iter))
    (Affine.const const)
    (List.mapi (fun k t -> (k, t)) terms)

(* --- accesses ---------------------------------------------------------- *)

let direction_to_string = function
  | Access.Read -> "read"
  | Access.Write -> "write"

let direction_of_string ~path = function
  | "read" -> Access.Read
  | "write" -> Access.Write
  | s -> fail ~path "bad direction %S (expected \"read\" or \"write\")" s

let access_to_json (a : Access.t) =
  Json.obj
    [ ("array", Json.str a.Access.array);
      ("dir", Json.str (direction_to_string a.Access.direction));
      ("index", Json.arr (List.map affine_to_json a.Access.index)) ]

let access_of_json ~path j =
  let fields = as_obj ~path j in
  check_fields ~path ~allowed:[ "array"; "dir"; "index" ] fields;
  let array = as_str ~path:(sub path ".array") (field ~path fields "array") in
  let dir_path = sub path ".dir" in
  let direction =
    direction_of_string ~path:dir_path
      (as_str ~path:dir_path (field ~path fields "dir"))
  in
  let index =
    List.mapi
      (fun k e -> affine_of_json ~path:(sub path ".index[%d]" k) e)
      (as_arr ~path:(sub path ".index") (field ~path fields "index"))
  in
  Access.make ~array ~direction ~index

(* --- arrays ------------------------------------------------------------ *)

let array_decl_to_json (a : Array_decl.t) =
  Json.obj
    [ ("name", Json.str a.Array_decl.name);
      ("dims", Json.arr (List.map Json.int a.Array_decl.dims));
      ("element_bytes", Json.int a.Array_decl.element_bytes) ]

let array_decl_of_json ~path j =
  let fields = as_obj ~path j in
  check_fields ~path ~allowed:[ "name"; "dims"; "element_bytes" ] fields;
  let name = as_str ~path:(sub path ".name") (field ~path fields "name") in
  let dims =
    List.mapi
      (fun k d -> as_positive ~path:(sub path ".dims[%d]" k) d)
      (as_arr ~path:(sub path ".dims") (field ~path fields "dims"))
  in
  let element_bytes =
    as_positive ~path:(sub path ".element_bytes")
      (field ~path fields "element_bytes")
  in
  Array_decl.make ~name ~dims ~element_bytes

(* --- loop tree --------------------------------------------------------- *)

let rec node_to_json = function
  | Program.Stmt s ->
    Json.obj
      [ ( "stmt",
          Json.obj
            [ ("name", Json.str s.Stmt.name);
              ("work", Json.int s.Stmt.work_cycles);
              ( "accesses",
                Json.arr (List.map access_to_json s.Stmt.accesses) ) ] ) ]
  | Program.Loop l ->
    Json.obj
      [ ( "loop",
          Json.obj
            [ ("iter", Json.str l.Program.iter);
              ("trip", Json.int l.Program.trip);
              ("body", Json.arr (List.map node_to_json l.Program.body)) ] )
      ]

let rec node_of_json ~path j =
  match as_obj ~path j with
  | [ ("stmt", payload) ] ->
    let path = sub path ".stmt" in
    let fields = as_obj ~path payload in
    check_fields ~path ~allowed:[ "name"; "work"; "accesses" ] fields;
    let name = as_str ~path:(sub path ".name") (field ~path fields "name") in
    let work_cycles =
      as_int ~path:(sub path ".work") (field ~path fields "work")
    in
    let accesses =
      List.mapi
        (fun k a -> access_of_json ~path:(sub path ".accesses[%d]" k) a)
        (as_arr ~path:(sub path ".accesses") (field ~path fields "accesses"))
    in
    Program.Stmt (Stmt.make ~name ~work_cycles ~accesses)
  | [ ("loop", payload) ] ->
    let path = sub path ".loop" in
    let fields = as_obj ~path payload in
    check_fields ~path ~allowed:[ "iter"; "trip"; "body" ] fields;
    let iter = as_str ~path:(sub path ".iter") (field ~path fields "iter") in
    let trip =
      as_positive ~path:(sub path ".trip") (field ~path fields "trip")
    in
    let body =
      List.mapi
        (fun k child -> node_of_json ~path:(sub path ".body[%d]" k) child)
        (as_arr ~path:(sub path ".body") (field ~path fields "body"))
    in
    Program.Loop { Program.iter; trip; body }
  | _ ->
    fail ~path
      "expected an object with exactly one of the fields \"loop\" or \
       \"stmt\""

(* --- programs ---------------------------------------------------------- *)

let program_to_json (p : Program.t) =
  Json.obj
    [ ("name", Json.str p.Program.name);
      ("arrays", Json.arr (List.map array_decl_to_json p.Program.arrays));
      ("body", Json.arr (List.map node_to_json p.Program.body)) ]

let program_of_json_exn ?(path = "$") j =
  let fields = as_obj ~path j in
  check_fields ~path ~allowed:[ "name"; "arrays"; "body" ] fields;
  let name = as_str ~path:(sub path ".name") (field ~path fields "name") in
  let arrays =
    List.mapi
      (fun k a -> array_decl_of_json ~path:(sub path ".arrays[%d]" k) a)
      (as_arr ~path:(sub path ".arrays") (field ~path fields "arrays"))
  in
  let body =
    List.mapi
      (fun k nd -> node_of_json ~path:(sub path ".body[%d]" k) nd)
      (as_arr ~path:(sub path ".body") (field ~path fields "body"))
  in
  Program.make_exn ~name ~arrays ~body

let program_of_json ?path j =
  match Error.catch (fun () -> program_of_json_exn ?path j) with
  | Ok p -> Ok p
  | Result.Error _ as e -> e
