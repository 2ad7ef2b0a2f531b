(** Out-of-bounds checker.

    Re-derives, for every static access of every statement, the value
    range of each affine subscript over the full domains of its
    enclosing loops ({!Mhla_ir.Affine.min_value} /
    {!Mhla_ir.Affine.max_value}) and compares it against the declared
    dimension extents — trusting only the IR, never the analysis that
    fed the solver.

    Codes: [MHLA001] (max past the extent), [MHLA002] (min below zero).
    An undeclared array or a rank mismatch never reaches the pass:
    {!Mhla_ir.Program.make} rejects both. *)

val pass : Pass.t
