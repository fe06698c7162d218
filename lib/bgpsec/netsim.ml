module Graph = Asgraph.Graph
module Prefix = Netaddr.Prefix

type protocol = S_bgp | So_bgp

type setup = {
  graph : Graph.t;
  registry : Rpki.Registry.t;
  modes : Mode.t array;
  link_db : Sobgp.db;
  protocol : protocol;
  tiebreak : Bgp.Policy.tiebreak;
}

let prefix_of_as asn =
  let b = (asn lsr 8) land 0xff and c = asn land 0xff in
  Prefix.make (Netaddr.Ipv4.of_octets 10 b c 0) 24

let prepare ?(protocol = S_bgp) ?(tiebreak = Bgp.Policy.Lowest_id) ?(seed = 1) g ~modes =
  if Array.length modes <> Graph.n g then invalid_arg "Netsim.prepare: modes length";
  let registry = Rpki.Registry.create ~seed in
  Array.iteri
    (fun i mode ->
      if not (Mode.equal mode Mode.Off) then begin
        match Rpki.Registry.enroll registry ~asn:i ~prefixes:[ prefix_of_as i ] with
        | Ok _ -> ()
        | Error e -> invalid_arg ("Netsim.prepare: " ^ e)
      end)
    modes;
  let link_db = Sobgp.create_db () in
  if protocol = So_bgp then
    List.iter
      (fun ((a, b), _) ->
        if (not (Mode.equal modes.(a) Mode.Off)) && not (Mode.equal modes.(b) Mode.Off)
        then ignore (Sobgp.certify_link registry link_db a b))
      (Graph.edges g);
  { graph = g; registry; modes; link_db; protocol; tiebreak }

type selection = {
  ann : Sbgp.announcement;
  from : int;
  lp : int;  (* 0 customer, 1 peer, 2 provider *)
  len : int;
  sec : bool;
}

type outcome = {
  chosen : Sbgp.announcement option array;
  secure : bool array;
  iterations : int;
}

(* End-to-end validation of an announcement as received, independent
   of the receiver's own mode (used both for the SecP step when the
   receiver validates, and for reporting). *)
let validated setup ~receiver ann =
  match setup.protocol with
  | S_bgp -> Result.is_ok (Sbgp.validate setup.registry ~receiver ann)
  | So_bgp -> begin
      match List.rev ann.Sbgp.path with
      | [] -> false
      | origin :: _ ->
          Rpki.Registry.origin_validity setup.registry ~prefix:ann.Sbgp.prefix
            ~origin_asn:origin
          = Rpki.Roa.Valid
          && Sobgp.path_valid setup.registry setup.link_db (receiver :: ann.Sbgp.path)
    end

let route_to setup ~dest =
  let g = setup.graph in
  let n = Graph.n g in
  let rib : selection option array = Array.make n None in
  let prefix = prefix_of_as dest in
  (* GR2: may [v] export its current route to neighbor [u]?
     [v_is_provider_of_u] means u is v's customer, to whom v exports
     everything; otherwise only customer routes (and own prefixes)
     cross the edge. *)
  let exports v ~v_is_provider_of_u =
    if v = dest then true
    else begin
      match rib.(v) with
      | None -> false
      | Some sel -> v_is_provider_of_u || sel.lp = 0
    end
  in
  let candidate u v rel =
    let lp =
      match rel with Graph.Customer -> 0 | Graph.Peer -> 1 | Graph.Provider -> 2
    in
    let make ann =
      let len = List.length ann.Sbgp.path in
      let sec =
        Mode.validates setup.modes.(u) && validated setup ~receiver:u ann
      in
      Some { ann; from = v; lp; len; sec }
    in
    if v = dest then begin
      match
        Sbgp.originate setup.registry ~origin:dest ~prefix ~target:u
          ~signed:(Mode.signs_origination setup.modes.(dest))
      with
      | Ok ann -> make ann
      | Error _ -> begin
          match
            Sbgp.originate setup.registry ~origin:dest ~prefix ~target:u ~signed:false
          with
          | Ok ann -> make ann
          | Error _ -> None
        end
    end
    else begin
      match rib.(v) with
      | None -> None
      | Some sel -> begin
          match
            Sbgp.forward setup.registry ~sender:v ~target:u
              ~signed:(Mode.signs_transit setup.modes.(v))
              sel.ann
          with
          | Ok ann -> make ann
          | Error _ -> None
        end
    end
  in
  let better u a b =
    (* true when a beats b *)
    match b with
    | None -> true
    | Some b ->
        let key (s : selection) =
          ( s.lp,
            s.len,
            (if s.sec then 0 else 1),
            Bgp.Policy.tiebreak_key setup.tiebreak u s.from )
        in
        key a < key b
  in
  let changed = ref true in
  let iterations = ref 0 in
  while !changed && !iterations < (2 * n) + 4 do
    incr iterations;
    changed := false;
    for u = 0 to n - 1 do
      if u <> dest then begin
        let best = ref None in
        let consider v rel =
          (* The path must not already contain u (loop detection). *)
          if exports v ~v_is_provider_of_u:(rel = Graph.Provider) then begin
            match candidate u v rel with
            | Some sel when not (List.mem u sel.ann.Sbgp.path) ->
                if better u sel !best then best := Some sel
            | Some _ | None -> ()
          end
        in
        Graph.iter_customers g u (fun v -> consider v Graph.Customer);
        Graph.iter_peers g u (fun v -> consider v Graph.Peer);
        Graph.iter_providers g u (fun v -> consider v Graph.Provider);
        let same =
          match (rib.(u), !best) with
          | None, None -> true
          | Some a, Some b -> a.from = b.from && a.ann.Sbgp.path = b.ann.Sbgp.path
          | None, Some _ | Some _, None -> false
        in
        if not same then begin
          rib.(u) <- !best;
          changed := true
        end
      end
    done
  done;
  let chosen = Array.map (Option.map (fun s -> s.ann)) rib in
  let secure =
    Array.mapi
      (fun u sel ->
        match sel with
        | None -> false
        | Some s ->
            (not (Mode.equal setup.modes.(u) Mode.Off))
            && validated setup ~receiver:u s.ann)
      rib
  in
  { chosen; secure; iterations = !iterations }
