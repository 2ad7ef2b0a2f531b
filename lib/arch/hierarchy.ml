module Error = Mhla_util.Error

type t = { layers : Layer.t list; dma : Dma.t option }

let make ?dma layers =
  let reject fmt = Error.invalidf ~context:"Hierarchy.make" fmt in
  (match layers with
  | [] -> reject "no layers"
  | layers ->
    let n = List.length layers in
    let check level (l : Layer.t) =
      let last = level = n - 1 in
      match (last, l.capacity_bytes, l.location) with
      | true, None, Layer.Off_chip -> ()
      | true, Some _, _ -> reject "last layer %s must be unbounded" l.name
      | true, None, Layer.On_chip ->
        reject "last layer %s must be off-chip" l.name
      | false, Some _, Layer.On_chip -> ()
      | false, None, _ -> reject "inner layer %s must be bounded" l.name
      | false, Some _, Layer.Off_chip ->
        reject "inner layer %s must be on-chip" l.name
    in
    List.iteri check layers);
  { layers; dma }

let levels t = List.length t.layers

let layer t level =
  match List.nth_opt t.layers level with
  | Some l -> l
  | None -> Error.invalidf ~context:"Hierarchy.layer" "no level %d" level

let main_memory_level t = levels t - 1

let on_chip_levels t = List.init (levels t - 1) Fun.id

let has_dma t = t.dma <> None

let dma_exn t =
  match t.dma with
  | Some d -> d
  | None ->
    Error.invalidf ~context:"Hierarchy.dma_exn"
      ~hint:"build the platform with a DMA engine or guard with has_dma"
      "platform has no DMA engine"

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iteri (fun i l -> Fmt.pf ppf "L%d: %a@," i Layer.pp l) t.layers;
  (match t.dma with
  | Some d -> Fmt.pf ppf "%a@," Dma.pp d
  | None -> Fmt.pf ppf "no DMA engine@,");
  Fmt.pf ppf "@]"
