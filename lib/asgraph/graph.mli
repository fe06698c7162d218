(** The annotated AS-level graph G(V,E) of Section 3.1.

    Nodes are dense integers [0 .. n-1]. Edges carry the standard
    business-relationship annotation: customer-provider (directed by
    money: the customer pays) or peer-to-peer. Adjacency is stored in
    CSR form for the O(N^3)-scale routing computations. *)

type rel =
  | Customer  (** the neighbor is my customer *)
  | Peer
  | Provider  (** the neighbor is my provider *)

type t = private {
  n : int;
  customers : Nsutil.Csr.t;  (** row [i]: the customers of [i] *)
  providers : Nsutil.Csr.t;  (** row [i]: the providers of [i] *)
  peers : Nsutil.Csr.t;  (** row [i]: the peers of [i] *)
  klass : As_class.t array;
}

exception Malformed of string

val build :
  n:int ->
  cp_edges:(int * int) list ->
  peer_edges:(int * int) list ->
  cps:int list ->
  t
(** [build ~n ~cp_edges ~peer_edges ~cps] constructs a graph.
    [cp_edges] are [(provider, customer)] pairs; [peer_edges] are
    unordered. Duplicate edges are collapsed; an edge present with two
    different annotations, a self-loop, an out-of-range endpoint, or a
    node listed in [cps] that has customers raises {!Malformed}.
    Classes are derived: nodes in [cps] are [Cp]; other nodes with no
    customers are [Stub]; the rest are [Isp]. *)

val n : t -> int
val klass : t -> int -> As_class.t
val is_stub : t -> int -> bool
val is_isp : t -> int -> bool
val is_cp : t -> int -> bool

val rel : t -> int -> int -> rel option
(** [rel g a b] is the relationship of [b] to [a] ([Customer] when [b]
    pays [a]), or [None] if not adjacent. O(degree a). *)

val degree : t -> int -> int
(** Total neighbor count. *)

val customer_degree : t -> int -> int
val provider_degree : t -> int -> int
val peer_degree : t -> int -> int

val iter_customers : t -> int -> (int -> unit) -> unit
val iter_providers : t -> int -> (int -> unit) -> unit
val iter_peers : t -> int -> (int -> unit) -> unit
val customers_list : t -> int -> int list
val providers_list : t -> int -> int list
val peers_list : t -> int -> int list

val cp_edge_count : t -> int
(** Number of customer-provider edges. *)

val peer_edge_count : t -> int

val nodes_of_class : t -> As_class.t -> int list
val count_class : t -> As_class.t -> int

val edges : t -> ((int * int) * rel) list
(** Every edge once: customer-provider edges as
    [((provider, customer), Customer)] and peer edges (lower id first)
    as [((a, b), Peer)]. *)

val rel_to_string : rel -> string

(** {2 Topology deltas}

    A [delta] is a small, explicit description of topology churn
    relative to a base graph: edges inserted or withdrawn, nodes
    appended at the end of the id space, and content-provider
    participation toggles. Deltas drive the Section 8.4 evolution
    epochs and the incremental repair of the statics store in
    {!Bgp.Route_static}. *)

type op =
  | Edge_add of (int * int) * rel
      (** [Edge_add ((a, b), r)]: [b] becomes [r] of [a] — [Customer]
          pairs are [(provider, customer)], [Provider] pairs the
          reverse, [Peer] pairs unordered. *)
  | Edge_remove of (int * int) * rel
      (** Withdraw an existing base-graph edge; the pair and
          annotation must match ({!rel}[ g a b = Some r]), else
          {!apply_delta} raises {!Malformed}. *)
  | Set_cp of int * bool
      (** Toggle content-provider participation. The node must have no
          customers in the resulting graph. *)

type delta = {
  base_n : int;  (** node count of the graph the delta applies to *)
  grown : int;  (** new nodes appended: ids [base_n .. base_n + grown - 1] *)
  ops : op list;
}

val delta_edge_count : delta -> int
(** Number of edge insertions plus withdrawals in the delta (the
    "churned edge" count used by the bench harness). *)

val apply_delta : t -> delta -> t
(** [apply_delta g d] is the graph after the churn described by [d]:
    [n g + d.grown] nodes, base edges minus removals plus additions
    (appended after the surviving base edges, so existing CSR row
    order is preserved and new members sit at row ends), and classes
    re-derived from the updated customer sets and CP flags. Raises
    {!Malformed} under the same conditions as {!build}, or when a
    removal does not name an existing edge, or when [d.base_n] does
    not match [g]. New nodes with no ops mentioning them are isolated
    stubs. *)
