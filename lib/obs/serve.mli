(** The live scrape endpoint: a loopback HTTP server on a dedicated
    systhread.

    Routes: [GET /metrics] returns the registry in Prometheus
    exposition format (with a fresh RSS sample when metrics are
    enabled); [GET /healthz] returns a small JSON document with run
    progress (current round, rounds total), uptime, degradation
    state (checkpoint skips, watchdog cancels, retries)
    and journal status. Anything else is a 404.

    Requests are served serially; responses close the connection.
    The server thread spends its life blocked in [accept], which
    releases the OCaml runtime lock, so it costs the engine
    nothing while idle. *)

type t

val start : ?addr:string -> port:int -> unit -> (t, string) result
(** Bind [addr] (default loopback) on [port] — 0 picks an ephemeral
    port, see {!port} — and start answering. Errors (port in use,
    bad address) come back as [Error], never an exception. *)

val port : t -> int
(** The bound port (the kernel's choice when started with port 0). *)

val stop : t -> unit
(** Close the listening socket and join the server thread. Idempotent. *)

val healthz_body : t -> string
(** The /healthz JSON document (exposed for tests). *)
