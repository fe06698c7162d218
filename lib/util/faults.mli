(** Deterministic fault injection for the fault-tolerance layer.

    A fault plan decides, at named {e sites} in the worker pool and the
    checkpoint writer, whether to inject a failure: a raised
    {!Injected} in a worker task ([pool.task]), a hung slice
    ([pool.hang]), a failed checkpoint write ([checkpoint.io]) or a
    checkpoint file corrupted after checksumming
    ([checkpoint.corrupt]).

    A plan is a list of cells, each scoped to one site, with its own
    seed, rate, budget and counters; a site no cell names never fires.
    Decisions are a pure function of the cell's seed, its shot counter
    and the site name, so a plan replays the same failure schedule on
    every (serial) run; [budget] bounds the number of injections so
    supervised retries always converge, and [after] arms the cell only
    from the given shot onward (letting tests kill a run at a chosen
    depth).

    Counters are atomics: a single plan is shared by all worker
    domains of a run. Under parallel execution the *set* of shots that
    fire is schedule-dependent, but the per-cell budget bound — the
    property retries rely on — holds regardless.

    The [SBGP_FAULTS] environment variable holds a semicolon-separated
    plan of [site=seed:rate[:budget[:after]]] entries; the test suite
    reruns the engine-parity suite under it. *)

exception Injected of { site : string; shot : int }

type t

type spec = { seed : int; rate : float; budget : int; after : int }

val known_sites : string list
(** The sites the code fires: [pool.task], [pool.hang],
    [checkpoint.io], [checkpoint.corrupt]. {!of_env} warns when a plan
    names another. *)

val create : ?rate:float -> ?budget:int -> ?after:int -> seed:int -> string -> t
(** [create ~seed site]: a one-cell plan scoped to [site]. [rate] is
    the per-shot firing probability in [0, 1] (default 1); [budget]
    the maximum number of injections (default 1); [after] the number
    of initial shots that never fire (default 0). *)

val parse_spec : string -> (spec, string) result
(** Parse one ["seed:rate[:budget[:after]]"] spec; [Error] is a
    printable one-line reason. *)

val parse_plan : string -> ((string * spec) list, string) result
(** Parse a semicolon-separated plan of [site=spec] entries. An entry
    without [site=] is an error. *)

val of_env : unit -> t option
(** Build a plan from [SBGP_FAULTS] if set; malformed plans print a
    one-line stderr warning and yield [None], and entries scoped to a
    site outside {!known_sites} warn (but are kept). On a duplicate
    site the first entry wins. *)

val fires : t -> string -> int option
(** Count one shot against the site's cell (a site without a cell
    counts nothing); [Some shot] (consuming that cell's budget) when
    the plan injects here — used by callers that corrupt data or fail
    an operation rather than raise. *)

val trip : t -> string -> unit
(** [trip t site] raises {!Injected} when {!fires} does. *)

val shots : t -> int
(** Total shots counted so far, over all cells. *)

val fired : t -> int
(** Injections delivered so far, over all cells (bounded by the sum of
    budgets). *)
