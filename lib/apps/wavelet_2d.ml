(* [size] must be divisible by 4 (two decomposition levels). *)
let build ~name ~size ~taps ~work =
  let open Mhla_ir.Build in
  assert (size mod 4 = 0);
  let half = size / 2 in
  let quarter = size / 4 in
  let pad = taps - 1 in
  program name
    ~arrays:
      [ array "image" [ size; size + pad ];
        array "lo1" [ size + pad; half + pad ];
        array "ll1" [ half; half + pad ];
        array "lo2" [ half + pad; quarter + pad ];
        array "ll2" [ quarter; quarter ];
        array "filter" ~element_bytes:2 [ taps ] ]
    [ (* level 1, horizontal: image rows -> lo1 *)
      loop "y1" size
        [ loop "x1" half
            [ loop "t1" taps
                [ stmt "h1" ~work
                    [ rd "image" [ i "y1"; (i "x1" *$ 2) +$ i "t1" ];
                      rd "filter" [ i "t1" ];
                      wr "lo1" [ i "y1"; i "x1" ] ] ] ] ];
      (* level 1, vertical: lo1 columns -> ll1 *)
      loop "y2" half
        [ loop "x2" half
            [ loop "t2" taps
                [ stmt "v1" ~work
                    [ rd "lo1" [ (i "y2" *$ 2) +$ i "t2"; i "x2" ];
                      rd "filter" [ i "t2" ];
                      wr "ll1" [ i "y2"; i "x2" ] ] ] ] ];
      (* level 2, horizontal: ll1 -> lo2 *)
      loop "y3" half
        [ loop "x3" quarter
            [ loop "t3" taps
                [ stmt "h2" ~work
                    [ rd "ll1" [ i "y3"; (i "x3" *$ 2) +$ i "t3" ];
                      rd "filter" [ i "t3" ];
                      wr "lo2" [ i "y3"; i "x3" ] ] ] ] ];
      (* level 2, vertical: lo2 -> ll2 *)
      loop "y4" quarter
        [ loop "x4" quarter
            [ loop "t4" taps
                [ stmt "v2" ~work
                    [ rd "lo2" [ (i "y4" *$ 2) +$ i "t4"; i "x4" ];
                      rd "filter" [ i "t4" ];
                      wr "ll2" [ i "y4"; i "x4" ] ] ] ] ] ]

let app =
  Defs.make ~name:"wavelet_2d"
    ~description:"two-level 2-D wavelet decomposition of a 128x128 image"
    ~domain:"image processing"
    ~program:(fun () -> build ~name:"wavelet_2d" ~size:128 ~taps:5 ~work:12)
    ~small:(fun () -> build ~name:"wavelet_2d_small" ~size:16 ~taps:3 ~work:5)
    ~onchip_bytes:256
    ~notes:
      "Standard lifting-free DWT structure (e.g. the public Cohen-\
       Daubechies-Feauveau kernels): per level one horizontal and one \
       vertical pass, the vertical pass reading a taps-deep row window. \
       Sub-band arrays shrink by four per level, so deeper-level buffers \
       overlay the level-1 ones in-place."
