(* Tests for the message-level S*BGP: S-BGP attestations, soBGP link
   certificates, attack detection, and the cross-validation of the
   message-level simulator against the abstract routing model. *)

module Graph = Asgraph.Graph
module Mode = Bgpsec.Mode
module Sbgp = Bgpsec.Sbgp
module Sobgp = Bgpsec.Sobgp
module Netsim = Bgpsec.Netsim
module Attack = Bgpsec.Attack
module Registry = Rpki.Registry

let check = Alcotest.check
let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let registry_with asns =
  let reg = Registry.create ~seed:11 in
  List.iter
    (fun asn ->
      match Registry.enroll reg ~asn ~prefixes:[ Bgpsec.Netsim.prefix_of_as asn ] with
      | Ok _ -> ()
      | Error e -> failwith e)
    asns;
  reg

(* ------------------------------------------------------------------ *)
(* Modes *)

let test_modes () =
  check Alcotest.bool "off signs nothing" false (Mode.signs_origination Mode.Off);
  check Alcotest.bool "simplex signs own" true (Mode.signs_origination Mode.Simplex);
  check Alcotest.bool "simplex no transit" false (Mode.signs_transit Mode.Simplex);
  check Alcotest.bool "simplex no validation" false (Mode.validates Mode.Simplex);
  check Alcotest.bool "full does all" true
    (Mode.signs_origination Mode.Full && Mode.signs_transit Mode.Full
   && Mode.validates Mode.Full)

(* ------------------------------------------------------------------ *)
(* S-BGP *)

let test_sbgp_two_hop_chain () =
  let reg = registry_with [ 1; 2; 3 ] in
  let prefix = Bgpsec.Netsim.prefix_of_as 1 in
  let ann = Result.get_ok (Sbgp.originate reg ~origin:1 ~prefix ~target:2 ~signed:true) in
  let fwd = Result.get_ok (Sbgp.forward reg ~sender:2 ~target:3 ~signed:true ann) in
  check Alcotest.(list int) "path sender-first" [ 2; 1 ] fwd.Sbgp.path;
  check Alcotest.bool "fully signed" true (Sbgp.fully_signed fwd);
  check Alcotest.bool "validates" true (Result.is_ok (Sbgp.validate reg ~receiver:3 fwd))

let test_sbgp_unsigned_passthrough () =
  let reg = registry_with [ 1; 2; 3 ] in
  let prefix = Bgpsec.Netsim.prefix_of_as 1 in
  let ann = Result.get_ok (Sbgp.originate reg ~origin:1 ~prefix ~target:2 ~signed:false) in
  check Alcotest.bool "unsigned" false (Sbgp.fully_signed ann);
  let fwd = Result.get_ok (Sbgp.forward reg ~sender:2 ~target:3 ~signed:true ann) in
  (* A signing AS must not fabricate security onto an unsigned path. *)
  check Alcotest.bool "stays unsigned" false (Sbgp.fully_signed fwd);
  match Sbgp.validate reg ~receiver:3 fwd with
  | Error (Sbgp.Unsigned_hop _) -> ()
  | Error e -> Alcotest.fail (Sbgp.error_to_string e)
  | Ok () -> Alcotest.fail "should not validate"

let test_sbgp_tamper_prefix () =
  let reg = registry_with [ 1; 2 ] in
  let prefix = Bgpsec.Netsim.prefix_of_as 1 in
  let ann = Result.get_ok (Sbgp.originate reg ~origin:1 ~prefix ~target:2 ~signed:true) in
  (* Replay the announcement under a different (also ROA'd) prefix:
     AS 2 also holds a prefix, forge with its bytes. *)
  let forged = Sbgp.forge ~prefix:(Bgpsec.Netsim.prefix_of_as 2) ~path:ann.Sbgp.path ~target:2 in
  check Alcotest.bool "forged prefix does not validate" true
    (Result.is_error (Sbgp.validate reg ~receiver:2 forged))

let test_sbgp_error_strings () =
  List.iter
    (fun e -> check Alcotest.bool "nonempty rendering" true (Sbgp.error_to_string e <> ""))
    [
      Sbgp.Not_enrolled 5;
      Sbgp.Unsigned_hop 5;
      Sbgp.Bad_signature 5;
      Sbgp.Wrong_target { signer = 1; expected = 2 };
      Sbgp.Misdirected { target = 1; receiver = 2 };
      Sbgp.Origin_invalid Rpki.Roa.Unknown;
      Sbgp.Empty_path;
    ]

let test_sbgp_enrolled_hops () =
  let reg = registry_with [ 1; 2 ] in
  let ann = Sbgp.forge ~prefix:(Bgpsec.Netsim.prefix_of_as 1) ~path:[ 9; 2; 1 ] ~target:0 in
  check Alcotest.int "counts enrolled" 2 (Sbgp.enrolled_hops reg ann)

(* ------------------------------------------------------------------ *)
(* soBGP *)

let test_sobgp_link_lifecycle () =
  let reg = registry_with [ 1; 2; 3 ] in
  let db = Sobgp.create_db () in
  check Alcotest.bool "initially uncertified" false (Sobgp.link_certified reg db 1 2);
  ignore (Result.get_ok (Sobgp.certify_link reg db 1 2));
  check Alcotest.bool "certified" true (Sobgp.link_certified reg db 1 2);
  check Alcotest.bool "order irrelevant" true (Sobgp.link_certified reg db 2 1);
  check Alcotest.int "idempotent" 1
    (let _ = Sobgp.certify_link reg db 2 1 in
     Sobgp.cert_count db)

let test_sobgp_path_validation () =
  let reg = registry_with [ 1; 2; 3 ] in
  let db = Sobgp.create_db () in
  ignore (Sobgp.certify_link reg db 1 2);
  ignore (Sobgp.certify_link reg db 2 3);
  check Alcotest.bool "certified path" true (Sobgp.path_valid reg db [ 1; 2; 3 ]);
  check Alcotest.bool "uncertified link breaks it" false (Sobgp.path_valid reg db [ 1; 3 ]);
  check Alcotest.bool "single node trivially valid" true (Sobgp.path_valid reg db [ 1 ])

let test_sobgp_requires_enrollment () =
  let reg = registry_with [ 1 ] in
  let db = Sobgp.create_db () in
  match Sobgp.certify_link reg db 1 99 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unenrolled endpoint must fail"

(* ------------------------------------------------------------------ *)
(* Attacks *)

let test_attacks_detected () =
  check Alcotest.bool "origin hijack" true (Attack.origin_hijack_detected ());
  check Alcotest.bool "path forgery" true (Attack.path_forgery_detected ());
  check Alcotest.bool "replay" true (Attack.replay_to_wrong_neighbor_detected ())

let test_appendix_b () =
  let sound = Attack.appendix_b ~prefer_partial:false in
  check Alcotest.bool "sound rule keeps true route" false sound.chose_false_path;
  check Alcotest.int "via r" 3 sound.next_hop;
  let unsound = Attack.appendix_b ~prefer_partial:true in
  check Alcotest.bool "partial preference is fooled" true unsound.chose_false_path;
  check Alcotest.int "via q" 4 unsound.next_hop

(* ------------------------------------------------------------------ *)
(* Key delegation (Section 2.2.1 footnote) *)

let test_delegation_risk () =
  let with_delegation, without_delegation = Attack.delegation_risk () in
  check Alcotest.bool "delegated key forges undetectably" true with_delegation;
  check Alcotest.bool "no delegation, no forgery" false without_delegation

(* ------------------------------------------------------------------ *)
(* Netsim vs the abstract model *)

let modes_gen g =
  QCheck2.Gen.(
    let n = Graph.n g in
    let* bits = list_repeat n (int_bound 2) in
    return
      (Array.of_list
         (List.mapi
            (fun i b ->
              if Graph.is_stub g i then (if b = 0 then Mode.Off else Mode.Simplex)
              else if b = 0 then Mode.Off
              else Mode.Full)
            bits)))

let crosscheck_gen =
  QCheck2.Gen.(
    let* g = Testkit.Graphgen.graph ~max_n:20 () in
    let* modes = modes_gen g in
    let* d = int_bound (Graph.n g - 1) in
    let* protocol = oneofl [ Netsim.S_bgp; Netsim.So_bgp ] in
    return (g, modes, d, protocol))

let abstract_routes g ~modes ~d =
  let n = Graph.n g in
  let secure = Bytes.make n '\000' in
  let use_secp = Bytes.make n '\000' in
  Array.iteri
    (fun i m ->
      if not (Mode.equal m Mode.Off) then Bytes.set secure i '\001';
      if Mode.equal m Mode.Full then Bytes.set use_secp i '\001')
    modes;
  let info = Bgp.Route_static.compute g d in
  let scratch = Bgp.Forest.make_scratch n in
  Bgp.Forest.compute info ~tiebreak:Bgp.Policy.Lowest_id ~secure ~use_secp
    ~weight:(Array.make n 1.0) scratch;
  (info, scratch, secure)

let test_netsim_matches_forest_paths =
  qtest ~count:80 "message-level and abstract chosen paths agree" crosscheck_gen
    (fun (g, modes, d, protocol) ->
      let setup = Netsim.prepare ~protocol g ~modes in
      let outcome = Netsim.route_to setup ~dest:d in
      let info, scratch, _ = abstract_routes g ~modes ~d in
      let ok = ref true in
      for u = 0 to Graph.n g - 1 do
        if u <> d then begin
          match outcome.chosen.(u) with
          | None -> if Bgp.Route_static.reachable info u then ok := false
          | Some ann ->
              let message_path = u :: ann.Sbgp.path in
              let abstract_path = Bgp.Forest.path_to_dest info scratch u in
              if message_path <> abstract_path then ok := false
        end
      done;
      !ok)

let test_netsim_matches_forest_security =
  qtest ~count:80 "message-level validation agrees with abstract path security"
    crosscheck_gen
    (fun (g, modes, d, protocol) ->
      let setup = Netsim.prepare ~protocol g ~modes in
      let outcome = Netsim.route_to setup ~dest:d in
      let info, scratch, secure = abstract_routes g ~modes ~d in
      (* Chosen-route security, abstractly. *)
      let n = Graph.n g in
      let cs = Bytes.make n '\000' in
      Bytes.set cs d (Bytes.get secure d);
      for k = 1 to Bgp.Route_static.order_length info - 1 do
        let i = Bgp.Route_static.order_get info k in
        let nh = scratch.Bgp.Forest.next.(i) in
        if nh >= 0 && Bytes.get secure i = '\001' && Bytes.get cs nh = '\001' then
          Bytes.set cs i '\001'
      done;
      let ok = ref true in
      for u = 0 to n - 1 do
        if u <> d && Bgp.Route_static.reachable info u then
          if outcome.secure.(u) <> (Bytes.get cs u = '\001') then ok := false
      done;
      !ok)

let test_netsim_converges_quickly () =
  let params = Topology.Params.with_n Topology.Params.default 100 in
  let built = Topology.Gen.generate params in
  let g = built.graph in
  let modes =
    Array.init (Graph.n g) (fun i ->
        if Graph.is_stub g i then Mode.Simplex else Mode.Full)
  in
  let setup = Netsim.prepare g ~modes in
  let outcome = Netsim.route_to setup ~dest:(Graph.n g - 1) in
  check Alcotest.bool "iterations bounded by diameter-ish" true (outcome.iterations < 20);
  (* Everyone participates, so every chosen route must validate. *)
  let reachable = ref 0 and secured = ref 0 in
  Array.iteri
    (fun u ann ->
      if u <> Graph.n g - 1 && ann <> None then begin
        incr reachable;
        if outcome.secure.(u) then incr secured
      end)
    outcome.chosen;
  check Alcotest.int "all validated under full deployment" !reachable !secured

let () =
  Alcotest.run "bgpsec"
    [
      ("modes", [ Alcotest.test_case "mode capabilities" `Quick test_modes ]);
      ( "sbgp",
        [
          Alcotest.test_case "two-hop signed chain" `Quick test_sbgp_two_hop_chain;
          Alcotest.test_case "unsigned passthrough" `Quick test_sbgp_unsigned_passthrough;
          Alcotest.test_case "forged prefix rejected" `Quick test_sbgp_tamper_prefix;
          Alcotest.test_case "error rendering" `Quick test_sbgp_error_strings;
          Alcotest.test_case "enrolled hop counting" `Quick test_sbgp_enrolled_hops;
        ] );
      ( "sobgp",
        [
          Alcotest.test_case "link lifecycle" `Quick test_sobgp_link_lifecycle;
          Alcotest.test_case "path validation" `Quick test_sobgp_path_validation;
          Alcotest.test_case "requires enrollment" `Quick test_sobgp_requires_enrollment;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "detections" `Quick test_attacks_detected;
          Alcotest.test_case "appendix B" `Quick test_appendix_b;
          Alcotest.test_case "delegation risk" `Quick test_delegation_risk;
        ] );
      ( "netsim",
        [
          test_netsim_matches_forest_paths;
          test_netsim_matches_forest_security;
          Alcotest.test_case "full deployment validates everything" `Quick
            test_netsim_converges_quickly;
        ] );
    ]
