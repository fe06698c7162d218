(** Checkpointable churn runner: the Section 8.4 evolution epochs
    under one resumable umbrella.

    Each epoch runs the deployment engine on the current graph, grows
    the graph (new stubs multihome, preferentially to secure ISPs),
    migrates the warm statics store across the growth delta
    ({!Bgp.Route_static.rebase} under the [Delta] statics kernel;
    rebuilt under [Full]) and continues. With a checkpoint attached,
    progress persists as {!Core.Checkpoint.Churn} frames:

    - at every epoch boundary — the epoch cursor, the grown graph, the
      post-rebase statics store's image (via
      {!Bgp.Route_static.snapshot}: residency and hit/miss counters,
      no records) and every completed epoch summary;
    - every [every_rounds] engine rounds inside an epoch — the same
      context plus the engine's full serialized progress (which embeds
      its own store image), through {!Core.Engine.snapshot_sink}.

    A run killed between or inside an epoch therefore resumes
    float-identical to the uninterrupted run — states, oscillation
    tables, round records and statics counters — at any worker count;
    only the wall-clock [e_seconds] diagnostics differ. *)

type params = {
  epochs : int;  (** growth events; [epochs + 1] engine runs happen *)
  growth_fraction : float;  (** new stubs per epoch, as a fraction of n *)
  secure_bias : float;  (** attachment bias towards secure ISPs *)
  growth_seed : int;  (** epoch [k] grows with seed [growth_seed + k] *)
}

val default_params : params
(** The Section 8.4 experiment defaults: 3 epochs, 15% growth,
    bias 2.0, seed 100. *)

type epoch_summary = {
  e_epoch : int;
  e_nodes : int;  (** graph size the epoch ran on *)
  e_secure_as : float;  (** {!Core.Engine.secure_fraction} [`As] at termination *)
  e_secure_isp : float;
  e_new_on_secure : (int * int) option;
      (** [(on_secure, added)]: of the stubs added {e after} this
          epoch, how many landed on at least one secure provider;
          [None] for the final epoch (nothing is added after it) *)
  e_rounds : int;
  e_statics_misses : int;  (** diagnostic (see {!Core.Engine.result}) *)
  e_seconds : float;  (** wall clock; NOT stable across resume *)
}

type outcome = {
  summaries : epoch_summary list;  (** epoch ascending, [epochs + 1] entries *)
  final : Core.State.t;  (** deployment state at the last epoch's termination *)
  final_graph : Asgraph.Graph.t;
}

type checkpoint_spec = {
  path : string;  (** snapshot file, atomically replaced *)
  every_rounds : int;
      (** mid-epoch cadence, in engine rounds ([<= 0] disables
          mid-epoch frames; boundary frames are always written) *)
}

val input_digest :
  params -> Core.Config.t -> Asgraph.Graph.t -> early:int list -> string
(** SHA-256 (32 raw bytes) over the engine's input digest for the
    epoch-0 inputs plus the evolution parameters. {!resume} accepts
    only snapshots written under an equal digest. *)

val run :
  ?checkpoint:checkpoint_spec ->
  ?faults:Nsutil.Faults.t ->
  params ->
  Core.Config.t ->
  Asgraph.Graph.t ->
  early:int list ->
  outcome
(** Run all epochs from the given initial graph and early-adopter
    list. [faults] (default: [SBGP_FAULTS]) is threaded into the
    engine sweeps and the checkpoint writer. With
    [Core.Config.degrade] set, a failed write of an epoch-boundary or
    mid-epoch frame is skipped with a warning instead of raised, as
    the engine does. *)

val resume :
  from:string ->
  ?checkpoint:checkpoint_spec ->
  ?faults:Nsutil.Faults.t ->
  params ->
  Core.Config.t ->
  Asgraph.Graph.t ->
  early:int list ->
  outcome
(** Continue a checkpointed churn run from the snapshot at [from],
    passing the same params, config, initial graph and early adopters
    as the original {!run}. The frame is validated against
    {!input_digest} before anything is trusted; an {!Core.Checkpoint.Engine}-kind
    snapshot is rejected with {!Core.Checkpoint.Error}
    [(Unsupported_kind _)] — resume those with {!Core.Engine.resume}. *)
