module Prefix = Netaddr.Prefix

let fresh_registry () = Rpki.Registry.create ~seed:97

let enroll registry asn =
  match Rpki.Registry.enroll registry ~asn ~prefixes:[ Netsim.prefix_of_as asn ] with
  | Ok _ -> ()
  | Error e -> invalid_arg e

let origin_hijack_detected () =
  let registry = fresh_registry () in
  let victim = 64500 and attacker = 64666 and observer = 64501 in
  enroll registry victim;
  enroll registry attacker;
  enroll registry observer;
  (* The attacker originates the victim's prefix under its own ASN. *)
  let hijack =
    Sbgp.forge ~prefix:(Netsim.prefix_of_as victim) ~path:[ attacker ] ~target:observer
  in
  match Sbgp.validate registry ~receiver:observer hijack with
  | Error (Sbgp.Origin_invalid Rpki.Roa.Invalid_origin) -> true
  | Ok () | Error _ -> false

let path_forgery_detected () =
  let registry = fresh_registry () in
  let origin = 1 and honest = 2 and attacker = 3 and observer = 4 in
  List.iter (enroll registry) [ origin; honest; attacker; observer ];
  let prefix = Netsim.prefix_of_as origin in
  let step1 = Sbgp.originate registry ~origin ~prefix ~target:honest ~signed:true in
  match step1 with
  | Error _ -> false
  | Ok ann -> begin
      (* The attacker claims to be adjacent to the origin, splicing
         itself in place of [honest]: it reuses the origin's signed
         announcement (made out to [honest]) and forwards it as its
         own. *)
      match Sbgp.forward registry ~sender:attacker ~target:observer ~signed:true ann with
      | Error _ -> false
      | Ok spliced -> begin
          match Sbgp.validate registry ~receiver:observer spliced with
          | Error (Sbgp.Wrong_target _ | Sbgp.Bad_signature _) -> true
          | Ok () | Error _ -> false
        end
    end

let replay_to_wrong_neighbor_detected () =
  let registry = fresh_registry () in
  let origin = 10 and a = 11 and b = 12 in
  List.iter (enroll registry) [ origin; a; b ];
  let prefix = Netsim.prefix_of_as origin in
  match Sbgp.originate registry ~origin ~prefix ~target:a ~signed:true with
  | Error _ -> false
  | Ok ann -> begin
      (* Replay the copy made out to [a] directly to [b]: caught by
         the addressing check; even an attacker that also rewrites the
         target field is caught by the per-target attestation. *)
      let direct =
        match Sbgp.validate registry ~receiver:b ann with
        | Error (Sbgp.Misdirected _) -> true
        | Ok () | Error _ -> false
      in
      let retargeted =
        let rewritten =
          Sbgp.of_wire_parts ~prefix:ann.Sbgp.prefix ~path:ann.Sbgp.path ~target:b
            ~sigs:ann.Sbgp.sigs
        in
        match Sbgp.validate registry ~receiver:b rewritten with
        | Error (Sbgp.Bad_signature _ | Sbgp.Wrong_target _) -> true
        | Ok () | Error _ -> false
      in
      direct && retargeted
    end

let delegation_risk () =
  let registry = fresh_registry () in
  let stub = 64700 and provider = 64701 and observer = 64702 in
  List.iter (enroll registry) [ stub; provider; observer ];
  ignore provider;
  let prefix = Netsim.prefix_of_as stub in
  (* With delegation the provider holds the stub's signing key and can
     fabricate exactly the announcement the stub itself would have
     produced — indistinguishable to any verifier. (Holding the key is
     the delegation; [Sbgp.originate] signs with it.) *)
  let forged_with_delegation =
    match Sbgp.originate registry ~origin:stub ~prefix ~target:observer ~signed:true with
    | Ok ann -> Result.is_ok (Sbgp.validate registry ~receiver:observer ann)
    | Error _ -> false
  in
  (* Without delegation the provider can only emit an unsigned claim
     in the stub's name, which validation rejects. *)
  let forged_without_delegation =
    let forged = Sbgp.forge ~prefix ~path:[ stub ] ~target:observer in
    Result.is_ok (Sbgp.validate registry ~receiver:observer forged)
  in
  (forged_with_delegation, forged_without_delegation)

type appendix_b_outcome = { chose_false_path : bool; next_hop : int }

let appendix_b ~prefer_partial =
  let registry = fresh_registry () in
  let v = 1 and s = 2 and r = 3 and q = 4 and p = 5 and m = 6 in
  (* Only p and q deployed S*BGP; v additionally has a ROA (origin
     validation passes for both candidate paths, so everything hinges
     on path preference). *)
  enroll registry p;
  enroll registry q;
  enroll registry v;
  let prefix = Netsim.prefix_of_as v in
  (* True path: v -> s -> r -> p, no attestations (v signs its
     origination but s and r are insecure, so the chain is broken; we
     model the common case where the insecure hops just strip /
     never add attestations). *)
  let true_ann = Sbgp.forge ~prefix ~path:[ r; s; v ] ~target:p in
  (* False path: m forges the link (m, v) and announces to q; q
     honestly appends itself and forwards to p. *)
  let false_at_q = Sbgp.forge ~prefix ~path:[ m; v ] ~target:q in
  let false_ann =
    match Sbgp.forward registry ~sender:q ~target:p ~signed:true false_at_q with
    | Ok ann -> ann
    | Error _ -> assert false
  in
  (* Both paths are 3 hops and neither validates fully. The sound
     policy treats them as equally (in)secure and falls back to the
     tie break, which prefers the route through r (lower id). The
     unsound policy ranks by how many hops are RPKI-enrolled. *)
  let fully_valid ann = Result.is_ok (Sbgp.validate registry ~receiver:p ann) in
  let score ann =
    let full = if fully_valid ann then 1 else 0 in
    let partial = if prefer_partial then Sbgp.enrolled_hops registry ann else 0 in
    ((full, partial), ann)
  in
  let (score_true, _) = score true_ann in
  let (score_false, _) = score false_ann in
  let chosen =
    if score_false > score_true then false_ann
    else if score_true > score_false then true_ann
    else begin
      (* Tie break by next-hop id (r = 3 < q = 4). *)
      let next ann = match ann.Sbgp.path with h :: _ -> h | [] -> max_int in
      if next true_ann <= next false_ann then true_ann else false_ann
    end
  in
  {
    chose_false_path = chosen == false_ann;
    next_hop = (match chosen.Sbgp.path with h :: _ -> h | [] -> -1);
  }
