(** The one place search and policy names are parsed.

    The CLI's [--search]/[--policy] flags, the service wire's
    ["search"]/["policy"]/["policies"] fields and the tests all resolve
    spellings here, so they accept exactly the same names and reject
    unknown ones with the same typed
    {!Mhla_util.Error.Error} ([Invalid_input], CLI exit 2). *)

val search_of_name :
  ?context:string ->
  ?seed:int64 ->
  ?iterations:int ->
  string ->
  Mhla_core.Explore.search
(** Accepted spellings: ["greedy"]; ["first-improvement"] (also
    ["first"], ["greedy-first"]); ["anneal"] (also ["annealing"]),
    which takes [seed] (default [42L]) and [iterations] (default
    [4000]).
    @raise Mhla_util.Error.Error ([Invalid_input], with the known
    names in the hint) on anything else. [context] names the caller
    in the diagnostic. *)

val search_name : Mhla_core.Explore.search -> string
(** The canonical spelling (annealing parameters are carried
    separately by serialisers). *)

val builtins : Policy.t list
(** Every nameable policy, in canonical order: greedy, greedy-first,
    anneal, lean. *)

val names : string list

val find : ?context:string -> string -> Policy.t
(** @raise Mhla_util.Error.Error ([Invalid_input], hint lists
    {!names}) for an unknown policy name. *)

val default_portfolio : Policy.t list
(** The canonical racing field — greedy, greedy-first, anneal — in
    tie-break order: the portfolio winner on equal objectives is the
    earliest of this list, so greedy wins any tie it enters. *)

val default_portfolio_names : string list
