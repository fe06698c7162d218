(** The phase table: every timed section of a run, named once.

    A phase is a span ({!Trace}) and, when its latency is published, a
    wall-time histogram ({!Metrics}). The engine, the worker pool, the
    checkpoint code, the churn runner, {!Report} and the bench
    self-check all take their names from here. Perfbench and {!Report}
    parse these names, so they are a stable interface.

    Nesting on the calling domain: [engine.run] > [statics.prefill] /
    [engine.baseline] / [engine.round] > [engine.begin_round] /
    [engine.probe] / [engine.sweep] / [engine.reduce] /
    [engine.decide] / [checkpoint.write]. [pool.slice] and [pool.park]
    run on worker domains; [checkpoint.load] and [statics.rebase] run
    outside the engine. *)

type hist = {
  metric : string;  (** histogram name, in milliseconds *)
  label : string;  (** the phase's cell in {!Report}'s latency line *)
  handle : Metrics.histogram Lazy.t;  (** registered with its help text and buckets *)
}

type t = private { cat : string; span : string; hist : hist option }

val engine_run : t
val engine_round : t
val begin_round : t
val probe : t
val sweep : t
val reduce : t
val decide : t
val statics_prefill : t
val baseline : t
val statics_rebase : t
val checkpoint_write : t
val checkpoint_load : t
val pool_slice : t
val pool_park : t

val all : t list
(** Every phase. Those with a histogram come in {!Report}'s column
    order. *)

val run : ?args:(string * string) list -> t -> (unit -> 'a) -> 'a
(** [run p f] runs [f ()] inside [p]'s span and observes its wall time
    into [p]'s histogram, each only while its collector is enabled,
    and records even if [f] raises. With both collectors off this is
    [f ()]: no clock read, no lazy forced. *)
