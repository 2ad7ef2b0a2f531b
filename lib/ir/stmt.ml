type t = { name : string; work_cycles : int; accesses : Access.t list }

let make ~name ~work_cycles ~accesses =
  if name = "" then Mhla_util.Error.invalidf ~context:"Stmt.make" "empty name";
  if work_cycles < 0 then
    Mhla_util.Error.invalidf ~context:"Stmt.make" "negative work in %s" name;
  { name; work_cycles; accesses }

let pp ppf t =
  Fmt.pf ppf "%s (%d cyc): %a" t.name t.work_cycles
    Fmt.(list ~sep:comma Access.pp)
    t.accesses
