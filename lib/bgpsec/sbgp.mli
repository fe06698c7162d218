(** Message-level Secure BGP (S-BGP, [24]): route attestations.

    An announcement carries the AS path (sender first, origin last)
    and one nested signature per path element: AS [v_j] signs the
    prefix, the path from the origin up to itself, and the AS it is
    sending to — so a signature cannot be cut and pasted onto another
    path or replayed to a different neighbor.

    Path validation (what a *full* deployer does on receipt) checks
    every signature; it succeeds only when every AS on the path
    participates (full, or simplex at the origin), which is exactly
    the paper's "a path is secure iff every AS on it is secure". *)

type announcement = private {
  prefix : Netaddr.Prefix.t;
  path : int list;  (** [sender; ...; origin] *)
  target : int;  (** the neighbor this copy was sent to *)
  sigs : Scrypto.Sig_scheme.signature list;  (** aligned with [path]; may be shorter for partially-signed paths *)
}

type error =
  | Not_enrolled of int
  | Unsigned_hop of int
  | Bad_signature of int
  | Wrong_target of { signer : int; expected : int }
  | Misdirected of { target : int; receiver : int }
      (** the announcement was addressed to another AS *)
  | Origin_invalid of Rpki.Roa.validity
  | Empty_path

val error_to_string : error -> string

val originate :
  Rpki.Registry.t ->
  origin:int ->
  prefix:Netaddr.Prefix.t ->
  target:int ->
  signed:bool ->
  (announcement, error) result
(** A fresh announcement of the origin's own prefix. With
    [signed:false] (an AS running plain BGP) no attestation is
    attached. *)

val forward :
  Rpki.Registry.t ->
  sender:int ->
  target:int ->
  signed:bool ->
  announcement ->
  (announcement, error) result
(** Re-announce a received announcement one hop further. A signing
    sender appends its attestation *only when the announcement is
    fully signed so far* — signing a partially-signed path would
    fabricate security (cf. Section 2.2.2 on partially secure
    paths). *)

val validate : Rpki.Registry.t -> receiver:int -> announcement -> (unit, error) result
(** Full S-BGP path + origin validation as performed by [receiver]. *)

val fully_signed : announcement -> bool
(** All path hops carry a signature (cheap syntactic check; does not
    verify them). *)

val forge :
  prefix:Netaddr.Prefix.t -> path:int list -> target:int -> announcement
(** An attacker-controlled announcement with an arbitrary unsigned
    path (for the attack demos). *)

val of_wire_parts :
  prefix:Netaddr.Prefix.t ->
  path:int list ->
  target:int ->
  sigs:Scrypto.Sig_scheme.signature list ->
  announcement
(** Assemble an announcement from its fields, as an attacker that
    rewrites a signed copy would ({!Attack} re-addresses one); structural
    only — nothing is verified until {!validate}. *)

val enrolled_hops : Rpki.Registry.t -> announcement -> int
(** Number of path hops enrolled in the RPKI — the naive
    "how secure does this path look" score that a
    partially-secure-path preference would use. Appendix B shows why
    ranking on it is dangerous; see {!Attack}. *)
