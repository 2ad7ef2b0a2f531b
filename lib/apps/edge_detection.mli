(** Sobel edge detection with smoothing (image processing).

    A Gaussian smoothing pass followed by horizontal and vertical Sobel
    gradients computed in one nest, then thresholding. Two 3x3 window
    reads per pixel over the smoothed image. *)

val app : Defs.t
