type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list;  (* reverse order *)
}

let create ~columns =
  { headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    Error.invalidf ~context:"Table.add_row" "%d cells for %d columns"
      (List.length cells) (List.length t.headers);
  t.rows <- cells :: t.rows

let column_widths t =
  let widths = Array.of_list (List.map String.length t.headers) in
  let widen cells =
    List.iteri
      (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
      cells
  in
  List.iter widen t.rows;
  widths

let pad align width s =
  let fill = String.make (max 0 (width - String.length s)) ' ' in
  match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let widths = column_widths t in
  let aligns = Array.of_list t.aligns in
  let buf = Buffer.create 1024 in
  let emit_cells cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad aligns.(i) widths.(i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  emit_cells t.headers;
  emit_cells (Array.to_list (Array.map (fun w -> String.make w '-') widths));
  List.iter emit_cells (List.rev t.rows);
  Buffer.contents buf

let print t = print_string (render t)

let cell_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v

let cell_percent ?(decimals = 1) v = Printf.sprintf "%.*f%%" decimals v

let cell_int v = string_of_int v
