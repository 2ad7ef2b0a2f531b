type kind = Invalid_input | Deadline | Internal

type t = {
  kind : kind;
  context : string;
  message : string;
  hint : string option;
}

exception Error of t

let make ?hint kind ~context message = { kind; context; message; hint }

let raise_error t = raise (Error t)

let failf ?hint kind ~context fmt =
  Printf.ksprintf
    (fun message -> raise_error (make ?hint kind ~context message))
    fmt

let invalidf ?hint ~context fmt = failf ?hint Invalid_input ~context fmt

let deadlinef ?hint ~context fmt = failf ?hint Deadline ~context fmt

let internalf ?hint ~context fmt = failf ?hint Internal ~context fmt

let kind_label = function
  | Invalid_input -> "invalid input"
  | Deadline -> "deadline"
  | Internal -> "internal"

let exit_code t =
  match t.kind with
  | Invalid_input -> 2
  | Deadline -> 75
  | Internal -> 70

let to_string t =
  let hint = match t.hint with None -> "" | Some h -> " (hint: " ^ h ^ ")" in
  Printf.sprintf "%s: %s%s" t.context t.message hint

let () =
  Printexc.register_printer (function
    | Error t ->
      Some (Printf.sprintf "Mhla_util.Error.Error (%s: %s)" (kind_label t.kind)
              (to_string t))
    | _ -> None)

let catch f =
  match f () with
  | v -> Ok v
  | exception Error t -> Result.Error t
  | exception Invalid_argument m ->
    Result.Error (make Invalid_input ~context:"Invalid_argument" m)
  | exception Failure m ->
    Result.Error (make Internal ~context:"Failure" m)

