(* The message layer: RPKI enrollment, signed S-BGP announcements,
   soBGP link certificates, simplex mode, and the attacks each
   mechanism stops.

   Run with: dune exec examples/secure_messages.exe *)

let check label ok = Printf.printf "  [%s] %s\n" (if ok then "ok" else "FAIL") label

let () =
  Printf.printf "== RPKI: certificates and ROAs ==\n";
  let registry = Rpki.Registry.create ~seed:7 in
  let enroll asn =
    match Rpki.Registry.enroll registry ~asn ~prefixes:[ Bgpsec.Netsim.prefix_of_as asn ] with
    | Ok cert -> cert
    | Error e -> failwith e
  in
  let origin = 64496 and transit = 64497 and customer = 64498 in
  let _ = enroll origin and _ = enroll transit and _ = enroll customer in
  check "origin's certificate chain validates"
    (Result.is_ok (Rpki.Registry.verify_as_chain registry ~asn:origin));
  let prefix = Bgpsec.Netsim.prefix_of_as origin in
  check "ROA says the origin may announce its prefix"
    (Rpki.Registry.origin_validity registry ~prefix ~origin_asn:origin = Rpki.Roa.Valid);
  check "ROA rejects anyone else announcing it"
    (Rpki.Registry.origin_validity registry ~prefix ~origin_asn:transit
    = Rpki.Roa.Invalid_origin);

  Printf.printf "\n== S-BGP: nested route attestations ==\n";
  let ann =
    match Bgpsec.Sbgp.originate registry ~origin ~prefix ~target:transit ~signed:true with
    | Ok a -> a
    | Error e -> failwith (Bgpsec.Sbgp.error_to_string e)
  in
  let forwarded =
    match Bgpsec.Sbgp.forward registry ~sender:transit ~target:customer ~signed:true ann with
    | Ok a -> a
    | Error e -> failwith (Bgpsec.Sbgp.error_to_string e)
  in
  check "two-hop signed path validates at the customer"
    (Result.is_ok (Bgpsec.Sbgp.validate registry ~receiver:customer forwarded));
  check "replaying the copy meant for the transit elsewhere fails"
    (Result.is_error (Bgpsec.Sbgp.validate registry ~receiver:customer ann));

  Printf.printf "\n== Simplex mode: what stubs do and don't ==\n";
  check "simplex stubs sign their own prefixes"
    (Bgpsec.Mode.signs_origination Bgpsec.Mode.Simplex);
  check "simplex stubs do not validate" (not (Bgpsec.Mode.validates Bgpsec.Mode.Simplex));
  check "simplex stubs do not sign transit routes"
    (not (Bgpsec.Mode.signs_transit Bgpsec.Mode.Simplex));

  Printf.printf "\n== soBGP: link certificates ==\n";
  let db = Bgpsec.Sobgp.create_db () in
  (match Bgpsec.Sobgp.certify_link registry db origin transit with
  | Ok _ -> ()
  | Error e -> failwith e);
  check "certified link passes topology validation"
    (Bgpsec.Sobgp.path_valid registry db [ transit; origin ]);
  check "uncertified link fails topology validation"
    (not (Bgpsec.Sobgp.path_valid registry db [ customer; origin ]));

  Printf.printf "\n== Attacks (Appendix B and friends) ==\n";
  check "prefix origin hijack detected" (Bgpsec.Attack.origin_hijack_detected ());
  check "path splice / shortening detected" (Bgpsec.Attack.path_forgery_detected ());
  check "replay to the wrong neighbor detected"
    (Bgpsec.Attack.replay_to_wrong_neighbor_detected ());
  let sound = Bgpsec.Attack.appendix_b ~prefer_partial:false in
  let unsound = Bgpsec.Attack.appendix_b ~prefer_partial:true in
  check "fully-secure-only preference keeps the true route" (not sound.chose_false_path);
  Printf.printf
    "  [!!] preferring partially-secure paths routes to the attacker: %b\n\
    \       (this is why the paper forbids it, Section 2.2.2)\n"
    unsound.chose_false_path;

  Printf.printf "\n== Message-level vs abstract model ==\n";
  (* A small graph routed both by real signed messages (Netsim) and by
     the abstract routing-tree computation: chosen paths agree. *)
  let params = Topology.Params.with_n Topology.Params.default 120 in
  let built = Topology.Gen.generate params in
  let g = built.graph in
  let n = Asgraph.Graph.n g in
  let modes =
    Array.init n (fun i ->
        if i mod 3 = 0 then Bgpsec.Mode.Full
        else if Asgraph.Graph.is_stub g i then Bgpsec.Mode.Simplex
        else Bgpsec.Mode.Off)
  in
  let setup = Bgpsec.Netsim.prepare g ~modes in
  let dest = n - 1 in
  let outcome = Bgpsec.Netsim.route_to setup ~dest in
  let secured = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 outcome.secure in
  Printf.printf "  routed %d ASes to AS %d in %d iterations; %d hold validated routes\n"
    n dest outcome.iterations secured
