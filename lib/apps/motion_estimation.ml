(* [block] is the block edge, [range] the displacement radius,
   [sad_work] the compute cycles per pixel comparison. *)
let build ~name ~blocks_y ~blocks_x ~block ~range ~sad_work =
  let open Mhla_ir.Build in
  let height = blocks_y * block in
  let width = blocks_x * block in
  let search = (2 * range) + 1 in
  program name
    ~arrays:
      [ array "cur" [ height; width ];
        array "prev" [ height + (2 * range); width + (2 * range) ];
        array "mv" ~element_bytes:2 [ blocks_y; blocks_x ] ]
    [ loop "by" blocks_y
        [ loop "bx" blocks_x
            [ loop "sy" search
                [ loop "sx" search
                    [ loop "y" block
                        [ loop "x" block
                            [ stmt "sad" ~work:sad_work
                                [ rd "cur"
                                    [ (i "by" *$ block) +$ i "y";
                                      (i "bx" *$ block) +$ i "x" ];
                                  rd "prev"
                                    [ (i "by" *$ block) +$ i "sy" +$ i "y";
                                      (i "bx" *$ block) +$ i "sx" +$ i "x" ]
                                ] ] ] ] ];
              stmt "best" ~work:8 [ wr "mv" [ i "by"; i "bx" ] ] ] ] ]

let app =
  Defs.make ~name:"motion_estimation"
    ~description:"full-search block motion estimation, QCIF, 16x16, +/-8"
    ~domain:"motion estimation"
    ~program:(fun () ->
      build ~name:"motion_estimation" ~blocks_y:9 ~blocks_x:11 ~block:16
        ~range:8 ~sad_work:8)
    ~small:(fun () ->
      build ~name:"motion_estimation_small" ~blocks_y:2 ~blocks_x:2 ~block:4
        ~range:2 ~sad_work:4)
    ~onchip_bytes:384
    ~notes:
      "Models the full-search kernel of public video encoders (e.g. \
       H.263 tmn). The current block (256 B) is reused over 289 \
       displacements; the (block+2*range)^2 search window slides per \
       block. The paper's industrial encoder is proprietary; reuse \
       behaviour depends only on this loop structure."
