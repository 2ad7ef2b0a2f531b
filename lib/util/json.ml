type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool
  | Null

let obj fields = Obj fields

let arr items = Arr items

let str s = Str s

let int n = Int n

let float f =
  if not (Float.is_finite f) then
    Error.invalidf ~context:"Json.float" "not representable";
  Float f

let bool b = Bool b

let null = Null

(* Emission is written against an output sink (a char writer and a
   string writer) so [to_string] and the streaming [to_channel] share
   one renderer and cannot drift. *)
let escape ~char ~string s =
  char '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> string "\\\""
      | '\\' -> string "\\\\"
      | '\n' -> string "\\n"
      | '\r' -> string "\\r"
      | '\t' -> string "\\t"
      | c when Char.code c < 0x20 ->
        string (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> char c)
    s;
  char '"'

let emit_to ~char ~string ~indent t =
  let escape = escape ~char ~string in
  let pretty = indent > 0 in
  let pad level =
    if pretty then begin
      char '\n';
      string (String.make (level * indent) ' ')
    end
  in
  let rec emit level = function
    | Null -> string "null"
    | Bool b -> string (string_of_bool b)
    | Int n -> string (string_of_int n)
    | Float f ->
      (* Shortest representation that round-trips. *)
      let s = Printf.sprintf "%.17g" f in
      let shorter = Printf.sprintf "%.12g" f in
      string (if float_of_string shorter = f then shorter else s)
    | Str s -> escape s
    | Arr [] -> string "[]"
    | Arr items ->
      char '[';
      List.iteri
        (fun k item ->
          if k > 0 then char ',';
          pad (level + 1);
          emit (level + 1) item)
        items;
      pad level;
      char ']'
    | Obj [] -> string "{}"
    | Obj fields ->
      char '{';
      List.iteri
        (fun k (name, value) ->
          if k > 0 then char ',';
          pad (level + 1);
          escape name;
          string (if pretty then ": " else ":");
          emit (level + 1) value)
        fields;
      pad level;
      char '}'
  in
  emit 0 t

let to_string ?(indent = 0) t =
  let buf = Buffer.create 1024 in
  emit_to ~char:(Buffer.add_char buf) ~string:(Buffer.add_string buf) ~indent
    t;
  Buffer.contents buf

let to_channel ?(indent = 0) oc t =
  emit_to ~char:(output_char oc) ~string:(output_string oc) ~indent t

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Arr xs, Arr ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (nx, vx) (ny, vy) -> String.equal nx ny && equal vx vy)
         xs ys
  | (Null | Bool _ | Int _ | Float _ | Str _ | Arr _ | Obj _), _ -> false

(* --- parsing ----------------------------------------------------------- *)

type parse_error = { line : int; col : int; offset : int; reason : string }

let parse_error_to_string e =
  Printf.sprintf "line %d, column %d: %s" e.line e.col e.reason

let max_depth = 256

exception Parse of int * string
(* (offset, reason) — positions are resolved to line/column once, at
   the catch site, so the hot path never tracks lines. *)

(* One shared [Some c] per byte, so [peek] allocates nothing. *)
let some_char = Array.init 256 (fun k -> Some (Char.chr k))

(* An integer of at most this many digits fits an OCaml [int] (max_int
   has 19), so its value is accumulated while scanning; a longer one
   goes through [int_of_string_opt], which knows the exact bound. *)
let max_safe_digits = 18

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let fail ?at reason =
    raise (Parse ((match at with Some p -> p | None -> !pos), reason))
  in
  let peek () =
    if !pos < n then Array.unsafe_get some_char (Char.code input.[!pos])
    else None
  in
  let looking_at c = !pos < n && input.[!pos] = c in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected %C, found %C" c got)
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let skip_ws () =
    while
      !pos < n
      && match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let literal word value =
    let start = !pos in
    let len = String.length word in
    let rec matches k =
      k = len || (input.[start + k] = word.[k] && matches (k + 1))
    in
    if start + len <= n && matches 0 then begin
      pos := start + len;
      value
    end
    else fail ~at:start (Printf.sprintf "expected %s" word)
  in
  (* The rest of a string from its first escape or control character:
     [start] is its opening quote and [buf] holds what came before. *)
  let decode_string ~start buf =
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let v = ref 0 in
      for _ = 1 to 4 do
        let c = input.[!pos] in
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> fail (Printf.sprintf "bad hex digit %C in \\u escape" c)
        in
        v := (!v * 16) + d;
        advance ()
      done;
      !v
    in
    let add_utf8 cp =
      (* Encode one Unicode scalar value. *)
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let rec go () =
      match peek () with
      | None -> fail ~at:start "unterminated string"
      | Some '"' ->
        advance ();
        Buffer.contents buf
      | Some '\\' ->
        let esc_at = !pos in
        advance ();
        (match peek () with
        | None -> fail ~at:esc_at "truncated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            let cp = hex4 () in
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              (* High surrogate: require the paired low surrogate. *)
              if
                !pos + 2 <= n
                && input.[!pos] = '\\'
                && input.[!pos + 1] = 'u'
              then begin
                advance ();
                advance ();
                let lo = hex4 () in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  add_utf8
                    (0x10000
                    + ((cp - 0xD800) lsl 10)
                    + (lo - 0xDC00))
                else fail ~at:esc_at "unpaired surrogate in \\u escape"
              end
              else fail ~at:esc_at "unpaired surrogate in \\u escape"
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then
              fail ~at:esc_at "unpaired surrogate in \\u escape"
            else add_utf8 cp
          | c -> fail ~at:esc_at (Printf.sprintf "bad escape \\%C" c)));
        go ()
      | Some c when Char.code c < 0x20 ->
        fail (Printf.sprintf "unescaped control character %C in string" c)
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  (* One string; [pos] sits on the opening quote. A string without
     escapes is a slice of the input. *)
  let parse_string () =
    let start = !pos in
    expect '"';
    let first = !pos in
    while
      !pos < n
      &&
      match input.[!pos] with
      | '"' | '\\' -> false
      | c -> Char.code c >= 0x20
    do
      advance ()
    done;
    if !pos < n && input.[!pos] = '"' then begin
      advance ();
      String.sub input first (!pos - 1 - first)
    end
    else begin
      let buf = Buffer.create (16 + !pos - first) in
      Buffer.add_substring buf input first (!pos - first);
      decode_string ~start buf
    end
  in
  let digits () =
    let d0 = !pos in
    while !pos < n && match input.[!pos] with '0' .. '9' -> true | _ -> false
    do
      advance ()
    done;
    if !pos = d0 then fail "expected digit"
  in
  let parse_number () =
    let start = !pos in
    let negative = looking_at '-' in
    if negative then advance ();
    let int_start = !pos in
    digits ();
    let int_digits = !pos - int_start in
    let is_float = ref false in
    if looking_at '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    if !is_float then begin
      match float_of_string_opt (String.sub input start (!pos - start)) with
      | Some f when Float.is_finite f -> Float f
      | Some _ | None -> fail ~at:start "number out of range"
    end
    else if int_digits <= max_safe_digits then begin
      let v = ref 0 in
      for k = int_start to int_start + int_digits - 1 do
        v := (!v * 10) + (Char.code input.[k] - Char.code '0')
      done;
      Int (if negative then - !v else !v)
    end
    else
      match int_of_string_opt (String.sub input start (!pos - start)) with
      | Some k -> Int k
      | None -> fail ~at:start "integer out of range"
  in
  let rec parse_value depth =
    if depth >= max_depth then
      fail (Printf.sprintf "nesting deeper than %d" max_depth);
    skip_ws ();
    match peek () with
    | None -> fail "expected value, found end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if looking_at '}' then begin
        advance ();
        Obj []
      end
      else Obj (members depth [])
    | Some '[' ->
      advance ();
      skip_ws ();
      if looking_at ']' then begin
        advance ();
        Arr []
      end
      else Arr (elements depth [])
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  (* An object's members from the one after [fields] (reversed) on,
     through the closing brace. *)
  and members depth fields =
    skip_ws ();
    let key_at = !pos in
    if not (looking_at '"') then fail "expected object key";
    let key = parse_string () in
    if List.mem_assoc key fields then
      fail ~at:key_at (Printf.sprintf "duplicate key %S" key);
    skip_ws ();
    expect ':';
    let value = parse_value (depth + 1) in
    let fields = (key, value) :: fields in
    skip_ws ();
    match peek () with
    | Some ',' ->
      advance ();
      members depth fields
    | Some '}' ->
      advance ();
      List.rev fields
    | Some c -> fail (Printf.sprintf "expected ',' or '}', found %C" c)
    | None -> fail "unterminated object"
  (* An array's elements after [items] (reversed), through the closing
     bracket. *)
  and elements depth items =
    let items = parse_value (depth + 1) :: items in
    skip_ws ();
    match peek () with
    | Some ',' ->
      advance ();
      elements depth items
    | Some ']' ->
      advance ();
      List.rev items
    | Some c -> fail (Printf.sprintf "expected ',' or ']', found %C" c)
    | None -> fail "unterminated array"
  in
  let position_of offset =
    let offset = min offset n in
    let line = ref 1 and bol = ref 0 in
    for k = 0 to offset - 1 do
      if input.[k] = '\n' then begin
        incr line;
        bol := k + 1
      end
    done;
    (!line, offset - !bol + 1)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    (match peek () with
    | Some c -> fail (Printf.sprintf "trailing input %C after document" c)
    | None -> ());
    v
  with
  | v -> Ok v
  | exception Parse (offset, reason) ->
    let line, col = position_of offset in
    Result.Error { line; col; offset; reason }

let parse_exn s =
  match parse s with
  | Ok v -> v
  | Result.Error e ->
    Error.invalidf ~context:"Json.parse" "%s" (parse_error_to_string e)
