module Json = Mhla_util.Json
module Error = Mhla_util.Error

(* Where a value sits in the document. Decoding adds one node per step
   down and renders the text (["$.body[0].loop.trip"]) only when a
   decode fails. *)
type path = Root of string | Field of path * string | Index of path * int

let rec add_path buf = function
  | Root s -> Buffer.add_string buf s
  | Field (p, name) ->
    add_path buf p;
    Buffer.add_char buf '.';
    Buffer.add_string buf name
  | Index (p, k) ->
    add_path buf p;
    Buffer.add_char buf '[';
    Buffer.add_string buf (string_of_int k);
    Buffer.add_char buf ']'

let path_to_string path =
  let buf = Buffer.create 64 in
  add_path buf path;
  Buffer.contents buf

let fail ~path fmt =
  Error.invalidf ~context:"Json_codec" ("%s: " ^^ fmt) (path_to_string path)

(* --- the decode kit ------------------------------------------------------ *)

type fields = (string * Json.t) list

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

let as_bool ~path = function
  | Json.Bool b -> b
  | j -> fail ~path "expected a boolean, found %s" (kind_name j)

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

(* Unknown fields are rejected at their own path: a misspelled optional
   knob silently ignored is the classic wire-format failure mode. *)
let check_fields ~path ~allowed fields =
  List.iter
    (fun (name, _) ->
      if not (List.mem name allowed) then
        fail ~path:(Field (path, name))
          "unknown field %S (expected one of: %s)" name
          (String.concat ", " allowed))
    fields

let get decode ~path fields name =
  decode ~path:(Field (path, name)) (field ~path fields name)

let get_opt decode ~path fields name =
  match List.assoc_opt name fields with
  | Some v -> Some (decode ~path:(Field (path, name)) v)
  | None -> None

let items decode ~path j =
  List.mapi (fun k item -> decode ~path:(Index (path, k)) item) (as_arr ~path j)

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
  let const = get as_int ~path fields "const" in
  let terms_path = Field (path, "terms") in
  let terms = as_arr ~path:terms_path (field ~path fields "terms") in
  let rec add_terms acc k = function
    | [] -> acc
    | term :: rest ->
      let path = Index (terms_path, k) in
      let fields = as_obj ~path term in
      check_fields ~path ~allowed:[ "iter"; "coeff" ] fields;
      let iter = get as_str ~path fields "iter" in
      let coeff = get as_int ~path fields "coeff" in
      if Affine.coeff acc iter <> 0 then
        fail ~path "iterator %S appears in two terms" iter;
      add_terms (Affine.add acc (Affine.var ~coeff iter)) (k + 1) rest
  in
  add_terms (Affine.const const) 0 terms

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
  let array = get as_str ~path fields "array" in
  let direction =
    get
      (fun ~path j -> direction_of_string ~path (as_str ~path j))
      ~path fields "dir"
  in
  let index = get (items affine_of_json) ~path fields "index" in
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
  let name = get as_str ~path fields "name" in
  let dims = get (items as_positive) ~path fields "dims" in
  let element_bytes = get as_positive ~path fields "element_bytes" in
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
    let path = Field (path, "stmt") in
    let fields = as_obj ~path payload in
    check_fields ~path ~allowed:[ "name"; "work"; "accesses" ] fields;
    let name = get as_str ~path fields "name" in
    let work_cycles = get as_int ~path fields "work" in
    let accesses = get (items access_of_json) ~path fields "accesses" in
    Program.Stmt (Stmt.make ~name ~work_cycles ~accesses)
  | [ ("loop", payload) ] ->
    let path = Field (path, "loop") in
    let fields = as_obj ~path payload in
    check_fields ~path ~allowed:[ "iter"; "trip"; "body" ] fields;
    let iter = get as_str ~path fields "iter" in
    let trip = get as_positive ~path fields "trip" in
    let body = get (items node_of_json) ~path fields "body" in
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

let program_of_json_exn ?(path = Root "$") j =
  let fields = as_obj ~path j in
  check_fields ~path ~allowed:[ "name"; "arrays"; "body" ] fields;
  let name = get as_str ~path fields "name" in
  let arrays = get (items array_decl_of_json) ~path fields "arrays" in
  let body = get (items node_of_json) ~path fields "body" in
  Program.make_exn ~name ~arrays ~body
