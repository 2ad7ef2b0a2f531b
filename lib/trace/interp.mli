(** Dynamic reference executor for the loop-nest IR.

    Walks the loop tree iteration by iteration and linearises every
    array access to its exact, bounds-checked address. This is the ground
    truth the static analyses are checked against: access counts must
    match {!Mhla_ir.Program.total_accesses} and the distinct addresses
    touched inside a refresh window must be covered by the analytic
    footprint box.

    Cost is one closure call per dynamic access — fine for the bundled
    applications (up to ~10^7 events) but mind it on bigger inputs. *)

type layout = (string * int) list
(** Base byte address of every array, assigned in declaration order,
    8-byte aligned, starting at 0. *)

val layout : Mhla_ir.Program.t -> layout

val address :
  layout -> Mhla_ir.Program.t -> array:string -> indices:int list -> int
(** Row-major linearised byte address of one element.
    @raise Mhla_util.Error.Error for an unknown array, a rank mismatch or an
    out-of-bounds index. *)

val count_events : Mhla_ir.Program.t -> int
(** Execute the program in source order and count its access events.
    Every count below executes the program the same way.
    @raise Mhla_util.Error.Error when a subscript leaves the array bounds —
    an IR modelling bug worth failing loudly on. *)

val count_by_stmt : Mhla_ir.Program.t -> (string * int) list
(** Dynamic access events grouped by statement name, in first-execution
    order. A statement whose loops never reach it (impossible for valid
    programs — trips are positive) would be absent. Each statement's
    count is [executions * length accesses], which the ["interp"] check
    of [Mhla_gen.Oracle] asserts against the static model. *)

val count_by_array : Mhla_ir.Program.t -> (string * int) list
(** Dynamic access events grouped by array, in first-touch order; each
    count must equal {!Mhla_ir.Program.total_accesses} of that array. *)

val touched_addresses :
  Mhla_ir.Program.t ->
  stmt:string ->
  access_index:int ->
  fix:(string * int) list ->
  int list
(** The distinct addresses one access touches while the iterators in
    [fix] are pinned and all other enclosing loops sweep — the dynamic
    counterpart of a copy-candidate footprint. Sorted ascending. *)
