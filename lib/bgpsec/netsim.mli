(** Message-level BGP/S*BGP propagation over an AS graph.

    This is the "ground truth" simulator: announcements are real
    signed messages ({!Sbgp}) or soBGP-validated paths ({!Sobgp}),
    propagated hop by hop under the Appendix-A export and ranking
    rules until a fixed point. Tests cross-validate its chosen paths
    and security bits against the abstract {!Bgp.Forest} computation —
    the two must agree on every graph. *)

type protocol = S_bgp | So_bgp

type setup = {
  graph : Asgraph.Graph.t;
  registry : Rpki.Registry.t;
  modes : Mode.t array;  (** per-AS participation *)
  link_db : Sobgp.db;  (** used by [So_bgp] *)
  protocol : protocol;
  tiebreak : Bgp.Policy.tiebreak;
}

val prepare :
  ?protocol:protocol ->
  ?tiebreak:Bgp.Policy.tiebreak ->
  ?seed:int ->
  Asgraph.Graph.t ->
  modes:Mode.t array ->
  setup
(** Enroll every participating AS in a fresh RPKI (prefix
    [10.a.b.0/24] derived from its number), and for [So_bgp] certify
    every link whose two endpoints participate. *)

type outcome = {
  chosen : Sbgp.announcement option array;  (** per-AS selected route to the destination *)
  secure : bool array;  (** the selected route validated end-to-end *)
  iterations : int;
}

val validated : setup -> receiver:int -> Sbgp.announcement -> bool
(** End-to-end validation of an announcement as received, under the
    setup's protocol (S-BGP signature chain + ROA, or soBGP link
    certificates + ROA), independent of the receiver's own mode. *)

val route_to : setup -> dest:int -> outcome
(** Propagate the destination's prefix announcement to a fixed point.
    Deterministic; terminates because the ranking improves
    monotonically under the Appendix-A policies (Appendix G). *)

val prefix_of_as : int -> Netaddr.Prefix.t
(** The deterministic prefix [prepare] assigns to an AS, also used by
    the attack demos: [10.(asn lsr 8 land 0xff).(asn land 0xff).0/24]. *)
