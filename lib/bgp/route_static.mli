(** Per-destination *static* routing information, in a compact layout.

    Observation C.1: under the Appendix-A policies, the class and
    length of every node's best route to a destination do not depend
    on the deployment state. This module computes, once per
    destination, each node's route class, path length and *tiebreak
    set* (the equally-good next hops among which SecP and TB choose).
    The per-state routing tree is then derived by {!Forest} in
    O(t * N) per destination.

    The tiebreak CSR and the length-sorted order are stored as int32
    bigarrays ({!Nsutil.I32}): half the footprint of [int array]s, out
    of the OCaml heap (never GC-scanned), and shareable across worker
    domains without copying. Each tiebreak row is pre-sorted by the
    static {!Policy.tiebreak_key} (stable, so insertion order breaks
    key collisions exactly as the legacy minimum scan did): the first
    eligible member of a row *is* the winner, which lets the forest
    kernel drop all key computations from its inner loop. *)

type dest_info = private {
  dest : int;
  cls : Bytes.t;  (** route class per node, {!Policy.class_to_char} encoding *)
  len : Bytes.t;  (** path length per node, valid when reachable; capped at 254 *)
  tie_off : Nsutil.I32.t;  (** CSR offsets, length [n + 1] *)
  tie : Nsutil.I32.t;
      (** CSR data: tiebreak-set members, each row sorted ascending by
          [Policy.tiebreak_key tb i] *)
  tie_rev_off : Nsutil.I32.t;  (** reverse-CSR offsets, length [n + 1] *)
  tie_rev : Nsutil.I32.t;
      (** reverse tiebreak adjacency: row [j] lists every node whose
          tie set contains [j], in {e descending} [order] position —
          the order Pass 2 of {!Forest.compute} folds child subtrees
          into parents, so {!Forest.repair} re-sums a parent's subtree
          with bit-identical float addition order *)
  order : Nsutil.I32.t;
      (** reachable nodes in ascending path length; [order.(0) = dest] *)
  tb : Policy.tiebreak;  (** the policy the tie rows are sorted under *)
  max_len : int;
}

val max_path_len : int
(** Upper bound on any stored path length (254 — lengths live in one
    byte). *)

val compute : ?tiebreak:Policy.tiebreak -> Asgraph.Graph.t -> int -> dest_info
(** Static info for one destination; O(V + E). Tie rows are sorted
    under [tiebreak] (default [Lowest_id]). *)

(** {2 Reusable computation scratch} *)

type builder
(** All O(n) scratch one three-stage computation touches, hoisted so a
    caller computing many records (a streaming sweep at 36K+ nodes)
    allocates nothing per destination. Single-domain state: keep one
    builder per worker, never share one across domains. *)

val make_builder : int -> builder
(** A builder for [n]-node graphs; {!compute_with} raises
    [Invalid_argument] on a node-count mismatch. *)

val compute_with :
  ?tiebreak:Policy.tiebreak ->
  ?transient:bool ->
  builder ->
  Asgraph.Graph.t ->
  int ->
  dest_info
(** {!compute} through a builder's scratch — bit-identical output.
    With [~transient:true] the record itself also lives in
    builder-owned buffers: it is only valid until the builder's next
    transient compute, and must never outlive the builder or be
    retained (the store's {!stream_get} promotes by deep copy). *)

val class_of : dest_info -> int -> Policy.route_class
val length_of : dest_info -> int -> int
(** Path length of the node's best route; raises if unreachable. *)

val reachable : dest_info -> int -> bool

val sorted_for : dest_info -> Policy.tiebreak -> bool
(** Are this info's tie rows sorted under the given policy (so the
    row head is the TB winner)? *)

(** {2 Accessors over the compact layout} *)

val order_length : dest_info -> int
val order_get : dest_info -> int -> int
val iter_order : dest_info -> (int -> unit) -> unit

val tie_size : dest_info -> int -> int
val tie_get : dest_info -> int -> int -> int
(** [tie_get info i k] is the [k]-th member of node [i]'s row. *)

val tie_list : dest_info -> int -> int list
val tie_exists : dest_info -> int -> (int -> bool) -> bool
val tie_fold : dest_info -> int -> ('a -> int -> 'a) -> 'a -> 'a
val tie_mem : dest_info -> int -> int -> bool

val info_bytes : dest_info -> int
(** Approximate resident size of one record, in bytes — the unit of
    the statics byte budget. *)

val info_equal : dest_info -> dest_info -> bool
(** Bit-for-bit equality of two records: destination, tiebreak policy,
    class and length bytes, tie CSR (offsets and pre-sorted rows),
    reverse tiebreak CSR, and the length-sorted order. The contract of
    the incremental repair path: [repair] must be [info_equal] to a
    fresh {!compute} on the churned graph. *)

(** {2 Incremental repair under topology churn} *)

type kernel = Full | Delta
(** Statics maintenance strategy across a {!Asgraph.Graph.delta}:
    [Full] rebuilds from scratch, [Delta] patches per-destination
    records surgically where the churn provably cannot reach the
    destination's routing tree and falls back to {!compute} elsewhere.
    Both produce bit-identical results; selected by
    [SBGP_STATICS_KERNEL] / [--statics-kernel]. *)

val kernel_of_env : unit -> kernel
(** Reads [SBGP_STATICS_KERNEL] ([full] or [delta]); defaults to
    [Delta], warning once on an invalid value. *)

val kernel_of_string : string -> kernel option
val kernel_to_string : kernel -> string

val repair : Asgraph.Graph.t -> delta:Asgraph.Graph.delta -> dest_info -> dest_info
(** [repair g' ~delta info] is the statics of [info.dest] on the
    churned graph [g' = apply_delta g delta], given the statics on the
    pre-churn graph [g]. Bit-identical ({!info_equal}) to
    [compute ~tiebreak:info.tb g' info.dest]. Destinations whose
    routing tree the delta cannot reach are patched in O(copy) —
    appended stubs are spliced into the CSR rows, tie permutation,
    reverse CSR and length order without recomputation — otherwise the
    record is rebuilt by {!compute}. The input [info] is never
    mutated. Raises [Invalid_argument] if [info] or [g'] do not match
    [delta]. *)

val repair_surgical :
  Asgraph.Graph.t -> delta:Asgraph.Graph.delta -> dest_info -> dest_info option
(** The patch-only half of {!repair}: [None] when the delta reaches
    the destination's tree and a full rebuild is required. [Some info]
    (physically shared) when the delta provably cannot affect this
    destination at all. *)

(** {2 The whole-graph store} *)

type t
(** Whole-graph store of per-destination info, filled lazily, with an
    optional byte budget. Unbounded (the default) it is a plain cache:
    {!ensure_all} prefills it in parallel and {!get} is afterwards a
    read-only lookup, safe from any domain. Bounded, {!get} recomputes
    on miss and inserts under clock (second-chance) eviction; the
    store is striped into shards with per-shard budgets, hands and
    counters, aligned with the contiguous destination slices the
    engine hands to workers. Because {!compute} is pure and slot
    updates are single pointer stores, concurrent [get]s from several
    domains always return correct (bit-identical) info — only the
    {!stats} counters are best-effort under concurrency. *)

type stats = {
  hits : int;
  misses : int;  (** includes initial fills *)
  evictions : int;
  cached : int;  (** destinations currently resident *)
  cached_bytes : int;
  budget_bytes : int;  (** [max_int] when unbounded *)
}

val create : ?budget_bytes:int -> ?tiebreak:Policy.tiebreak -> Asgraph.Graph.t -> t
(** [budget_bytes <= 0] means unbounded. Default comes from the
    [SBGP_STATICS_MB] environment variable (megabytes; unset or [0] =
    unbounded). *)

val graph : t -> Asgraph.Graph.t
val get : t -> int -> dest_info
(** [get t d] returns the info for destination [d], computing it (and
    caching it, budget permitting) on miss. *)

val peek : t -> int -> dest_info option
(** The resident record of destination [d], if any — never computes,
    and touches neither counters nor reference bits. *)

val stream_get : t -> builder -> int -> dest_info
(** The whole-graph-sweep read path. Hit: same as {!get}. Miss:
    recompute through the caller's builder; under a budget the record
    is transient unless it fits the owning shard's remaining headroom
    without evicting anything, in which case a deep copy is promoted
    into the store. The cached set thus converges to a stable prefix
    of the budget instead of churning every round (clock eviction
    degenerates to 100% turnover when a sweep touches every
    destination once). A non-promoted return value is only valid until
    the builder's next transient compute. Bit-identical to {!get} at
    any budget and worker count ({!compute_with} is pure). *)

val batch_grain : t -> workers:int -> tasks:int -> int
(** Destinations per dynamically-claimed chunk for a whole-graph sweep
    over this store: keeps one worker inside one shard stripe long
    enough that shard state sees mostly single-writer traffic, while
    leaving enough chunks for dynamic claiming to rebalance. Floors at
    the gadget-scale grain of 8. *)

val stats : t -> stats
val bounded : t -> bool

val set_budget_bytes : t -> int -> unit
(** [<= 0] means unbounded. Shrinking trims the store immediately. *)

val set_budget_mb : t -> int -> unit

val ensure_tiebreak : t -> Policy.tiebreak -> unit
(** Make the store serve info whose tie rows are sorted under the
    given policy, dropping all cached entries if it differs from the
    current one. Call before handing the store to an engine run. *)

val ensure_all : ?workers:int -> t -> unit
(** Unbounded store: force every destination's info, fanning the
    (pure, per-destination) computations out over [workers] domains;
    after this call {!get} is a read-only lookup. Bounded store: no-op
    — prefilling would only evict what it just built; workers fill
    shards lazily through {!get}. *)

(** {2 Rebasing across topology churn} *)

type rebase_stats = {
  shared : int;  (** resident entries untouched by the delta, kept as-is *)
  patched : int;  (** resident entries repaired surgically *)
  dropped : int;  (** resident entries the churn reached, left for lazy recompute *)
}

type journal
(** Snapshot of the pre-rebase store, for {!undo_rebase}. O(1) — the
    rebase never mutates the superseded slot space. *)

val rebase :
  ?kernel:kernel ->
  ?workers:int ->
  t ->
  delta:Asgraph.Graph.delta ->
  Asgraph.Graph.t ->
  journal
(** [rebase t ~delta g'] retargets the store at the churned graph
    [g' = apply_delta (graph t) delta] in place: fresh slot space and
    shard stripes sized for [g'] (the total byte budget is preserved),
    then — under the [Delta] kernel (default {!kernel_of_env}) — every
    resident entry is migrated through {!repair_surgical}, re-inserted
    through the normal budget accounting so eviction state stays
    exact. The migration itself fans out over [workers] domains
    (default 1); inserts stay serial in a fixed order, so the
    resulting store is bit-identical at any worker count. Entries the
    churn reaches are dropped and recompute lazily
    against [g'] on their next {!get}, as do entries under [Full].
    A patched record is inserted as is: the churn differential suite
    checks it {!info_equal} to a fresh {!compute} after every rebase.
    After a rebase the store never serves pre-churn info. Hit/miss/
    eviction counters restart from zero. Not thread-safe: call between
    engine runs, never concurrently with {!get}. Raises
    [Invalid_argument] when store or graph do not match [delta]. *)

val undo_rebase : t -> journal -> unit
(** Restore the store to its exact pre-rebase state (slots, reference
    bits, shard accounts, graph, tiebreak). Only meaningful with the
    journal of the store's most recent rebase. *)

val rebase_stats : journal -> rebase_stats

(** {3 Snapshots for churn-consistent checkpoints} *)

val snapshot : t -> string
(** Serialize the store state that cannot be derived from the graph:
    the resident destinations, reference bits, per-shard budget, each
    shard's clock hand and hit/miss/eviction counters, and the
    tiebreak policy. No record is written — {!of_snapshot} recomputes
    them — so the blob is O(n) bytes however warm the store. The graph
    is {e not} included. *)

val of_snapshot : ?workers:int -> Asgraph.Graph.t -> string -> t
(** Rebuild a store from {!snapshot} output onto [g], which must have
    the node count the snapshot was taken under (raises
    [Invalid_argument] otherwise), recomputing exactly the resident
    records over [workers] domains (default 1) as {!ensure_all} does.
    The result has the snapshotted store's residency, reference bits
    and {!stats}, and records {!info_equal} to its records. The blob
    is a [Marshal] image: callers must gate it behind an integrity
    check ({!Core.Checkpoint} does) before handing it here. *)

val rebase_changed : journal -> int list
(** Destinations (of the pre-churn graph, ascending) whose static info
    is not provably unchanged by the delta: patched or dropped
    entries, plus destinations that were not resident at rebase time.
    The complement — destinations omitted here — kept physically
    identical info, so any per-destination derived cache (forests,
    utility contributions) remains valid for them; feed this list to
    {!Core.Incremental.note_churn}. *)

(** Cross-round dirty-destination tracking for deployment-state
    caches. A consumer that caches *per-destination* derived data
    (routing forests, utility contributions) keyed on the deployment
    state can, after a state change, invalidate only the destinations
    whose security-aware routing tree can actually change: destination
    [d]'s tree reads the participation bytes of reachable nodes only
    (every node in [order], [d] itself, and all tiebreak-set members —
    which are themselves reachable), so a flip at a node that is
    unreachable in [d]'s static info cannot alter the tree; and if the
    origin [d] itself does not participate, no route towards it is
    ever fully secure, so flips elsewhere cannot alter the tree
    either. *)
module Dirty : sig
  type statics := t

  type t

  val create : statics -> t
  (** All destinations start dirty (nothing cached yet). *)

  val invalidate : t -> changed:int list -> secure:Bytes.t -> unit
  (** Mark every destination [d] with [d] itself in [changed] (a list
      of nodes whose participation or tie-break byte flipped), or with
      a participating origin ([secure.[d] = '\001'], the post-change
      participation bytes) and some node of [changed] reachable.
      Conservative: may mark a destination whose tree happens not to
      change, never misses one that does. Reads the statics store (and
      may force entries); per destination it scans the smaller of the
      changed set and the reachable order. *)

  val reset : t -> unit
  (** Mark every destination clean (call once the consumer has
      recomputed its cache for the current state). *)

  val mark : t -> int -> unit
  (** Mark one destination dirty unconditionally — used for topology
      churn, where the destination's static info (not just the
      deployment state) changed. *)

  val is_dirty : t -> int -> bool
  val dirty_count : t -> int
end

val mean_tiebreak_size : t -> among:(int -> bool) -> float
(** Mean tiebreak-set size over all (source satisfying [among],
    destination) pairs with a reachable route (Section 6.6). Forces
    every destination. *)

val mean_path_length : t -> from:int -> float
(** Mean best-path length from [from] to all other reachable
    destinations (Table 3). *)
