(** Cavity detection in medical images (image processing).

    A pipeline of four whole-image passes — horizontal Gaussian blur,
    vertical Gaussian blur, edge computation, maximum-gauss labelling —
    the standard DTSE/ATOMIUM demonstrator. The intermediate images
    have disjoint phase lifetimes, which exercises the in-place
    optimisation, and the vertical pass needs a multi-line window. *)

val app : Defs.t
