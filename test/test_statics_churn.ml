(* Churn differential suite for the incremental statics repair path:
   random GR1 graphs under random topology churn — stub attachment,
   edge insertion, edge withdrawal, edge class change, content-provider
   designation flips — with every repaired [Route_static.dest_info]
   checked bit-for-bit ([info_equal]) against a fresh
   [Route_static.compute] on the churned graph: class/length bytes,
   tie CSR offsets and pre-sorted rows, the reverse tiebreak CSR and
   the length-sorted order.

   The store-level [rebase] is exercised the way the engine uses it (a
   warm store migrated across each delta of a multi-delta churn
   sequence); its journal must undo to the physically identical
   pre-churn store, and destinations omitted from [rebase_changed]
   must keep physically shared records — the contract
   [Core.Incremental.note_churn] relies on to keep their cached
   forests.

   The case count per tiebreak policy comes from SBGP_CHURN_COUNT
   (default 150, so the two tiebreak suites together run >= 300
   cases). The churn-smoke alias in test/dune runs a pinned-seed
   regression corpus plus a fresh unseeded batch. *)

module Graph = Asgraph.Graph
module Policy = Bgp.Policy
module Route_static = Bgp.Route_static
module Gen = QCheck2.Gen

let check = Alcotest.check

let cases = Nsutil.Env.int_var ~name:"SBGP_CHURN_COUNT" ~min:1 ~default:150 ()

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:cases gen prop)

(* ------------------------------------------------------------------ *)
(* Churn generator *)

(* One random delta against [g]: 1-5 op slots, each drawing one of six
   churn kinds. A slot whose guards fail (no eligible node, pair
   already touched, ...) contributes nothing, so empty deltas occur —
   and exercise the all-shared rebase path. The guards keep every
   delta [apply_delta]-valid by construction: customer-provider
   additions point provider = lower index (preserving GR1 acyclicity,
   as in Testkit.Graphgen), providers are never CPs, removals name
   existing edges, each node pair is touched at most once per delta,
   and [Set_cp] only designates customer-free nodes. *)
let delta_gen g =
  let open Gen in
  let n = Graph.n g in
  let base_edges = Array.of_list (Graph.edges g) in
  let* nslots = int_range 1 5 in
  (* Fresh per-sample guard state, allocated inside the bind so
     re-running the generator (next case, shrinking) starts clean. *)
  let touched = Hashtbl.create 8 in (* pairs added or removed *)
  let got_customer = Hashtbl.create 8 in (* nodes gaining a customer *)
  let cp_toggled = Hashtbl.create 8 in (* nodes whose CP flag flips *)
  let touch lo hi = Hashtbl.replace touched (lo, hi) () in
  let free lo hi = not (Hashtbl.mem touched (lo, hi)) in
  let provider_ok v = (not (Graph.is_cp g v)) && not (Hashtbl.mem cp_toggled v) in
  let rec slots k grown acc =
    if k = 0 then return { Graph.base_n = n; grown; ops = List.rev acc }
    else
      let skip () = slots (k - 1) grown acc in
      let* kind = int_bound 5 in
      match kind with
      | 0 ->
          (* Attach a fresh stub to 1-2 existing providers — the
             surgical fast path. *)
          let s = n + grown in
          let* p1 = int_bound (n - 1) and* p2 = int_bound (n - 1) and* two = bool in
          if not (provider_ok p1) then skip ()
          else begin
            Hashtbl.replace got_customer p1 ();
            let acc = Graph.Edge_add ((p1, s), Graph.Customer) :: acc in
            let acc =
              if two && p2 <> p1 && provider_ok p2 then begin
                Hashtbl.replace got_customer p2 ();
                Graph.Edge_add ((p2, s), Graph.Customer) :: acc
              end
              else acc
            in
            slots (k - 1) (grown + 1) acc
          end
      | 1 ->
          (* New customer-provider edge between existing nodes. *)
          let* a = int_bound (n - 1) and* b = int_bound (n - 1) in
          let lo, hi = (min a b, max a b) in
          if lo = hi || Graph.rel g lo hi <> None || (not (free lo hi))
             || not (provider_ok lo)
          then skip ()
          else begin
            touch lo hi;
            Hashtbl.replace got_customer lo ();
            slots (k - 1) grown (Graph.Edge_add ((lo, hi), Graph.Customer) :: acc)
          end
      | 2 ->
          (* New peer edge between existing nodes. *)
          let* a = int_bound (n - 1) and* b = int_bound (n - 1) in
          let lo, hi = (min a b, max a b) in
          if lo = hi || Graph.rel g lo hi <> None || not (free lo hi) then skip ()
          else begin
            touch lo hi;
            slots (k - 1) grown (Graph.Edge_add ((lo, hi), Graph.Peer) :: acc)
          end
      | 3 ->
          (* Withdraw an existing edge. *)
          if Array.length base_edges = 0 then skip ()
          else
            let* i = int_bound (Array.length base_edges - 1) in
            let (lo, hi), rel_ = base_edges.(i) in
            if not (free lo hi) then skip ()
            else begin
              touch lo hi;
              slots (k - 1) grown (Graph.Edge_remove ((lo, hi), rel_) :: acc)
            end
      | 4 ->
          (* Class change: replace an existing edge by the other
             annotation in the same delta. *)
          if Array.length base_edges = 0 then skip ()
          else
            let* i = int_bound (Array.length base_edges - 1) in
            let (lo, hi), rel_ = base_edges.(i) in
            if not (free lo hi) then skip ()
            else begin
              match rel_ with
              | Graph.Customer ->
                  touch lo hi;
                  slots (k - 1) grown
                    (Graph.Edge_add ((lo, hi), Graph.Peer)
                    :: Graph.Edge_remove ((lo, hi), Graph.Customer)
                    :: acc)
              | Graph.Peer ->
                  if not (provider_ok lo) then skip ()
                  else begin
                    touch lo hi;
                    Hashtbl.replace got_customer lo ();
                    slots (k - 1) grown
                      (Graph.Edge_add ((lo, hi), Graph.Customer)
                      :: Graph.Edge_remove ((lo, hi), Graph.Peer)
                      :: acc)
                  end
              | Graph.Provider -> skip () (* [Graph.edges] never reports it *)
            end
      | _ ->
          (* Toggle a node's content-provider designation. *)
          let* v = int_bound (n - 1) in
          if Hashtbl.mem cp_toggled v then skip ()
          else if Graph.is_cp g v then begin
            Hashtbl.replace cp_toggled v ();
            slots (k - 1) grown (Graph.Set_cp (v, false) :: acc)
          end
          else if Graph.customer_degree g v = 0 && not (Hashtbl.mem got_customer v)
          then begin
            Hashtbl.replace cp_toggled v ();
            slots (k - 1) grown (Graph.Set_cp (v, true) :: acc)
          end
          else skip ()
  in
  slots nslots 0 []

(* A churn sequence: a base graph and 1-3 successive deltas, each
   generated against (and applied to) the previous graph. *)
let churn_case_gen =
  Gen.(
    let* g0 = Testkit.Graphgen.graph ~max_n:30 () in
    let* nsteps = int_range 1 3 in
    let rec go k g acc =
      if k = 0 then return (g0, List.rev acc)
      else
        let* d = delta_gen g in
        let g' = Graph.apply_delta g d in
        go (k - 1) g' ((d, g') :: acc)
    in
    go nsteps g0 [])

(* ------------------------------------------------------------------ *)
(* The differential property *)

(* Outcome tallies across all cases, asserted non-zero at the end so
   the suite provably exercised the surgical patch, the compute
   fallback AND the physically-shared path. *)
let shared_total = ref 0
let patched_total = ref 0
let dropped_total = ref 0

let repaired_matches_compute ~tiebreak (g0, steps) =
  let store = Route_static.create ~tiebreak g0 in
  Route_static.ensure_all ~workers:1 store;
  List.iter
    (fun (delta, g') ->
      let gb = Route_static.graph store in
      let nb = Graph.n gb in
      let before = Array.init nb (Route_static.get store) in
      (* rebase >> undo must restore the physically identical store. *)
      let j = Route_static.rebase ~kernel:Route_static.Delta ~workers:4 store ~delta g' in
      Route_static.undo_rebase store j;
      if Route_static.graph store != gb then
        QCheck2.Test.fail_reportf "undo_rebase did not restore the graph";
      for d = 0 to nb - 1 do
        if Route_static.get store d != before.(d) then
          QCheck2.Test.fail_reportf
            "undo_rebase lost the resident record of destination %d" d
      done;
      (* Redo, and this time keep it. *)
      let j = Route_static.rebase ~kernel:Route_static.Delta store ~delta g' in
      let st = Route_static.rebase_stats j in
      shared_total := !shared_total + st.Route_static.shared;
      patched_total := !patched_total + st.Route_static.patched;
      dropped_total := !dropped_total + st.Route_static.dropped;
      let changed = Hashtbl.create 16 in
      List.iter (fun d -> Hashtbl.replace changed d ()) (Route_static.rebase_changed j);
      for d = 0 to Graph.n g' - 1 do
        let want = Route_static.compute ~tiebreak g' d in
        let got = Route_static.get store d in
        if not (Route_static.info_equal got want) then
          QCheck2.Test.fail_reportf
            "rebased store: wrong record for destination %d (of %d, grown %d)" d
            (Graph.n g') delta.Graph.grown;
        if d < nb then begin
          (* The standalone repair API, including its compute
             fallback, must agree too. *)
          let rep = Route_static.repair g' ~delta before.(d) in
          if not (Route_static.info_equal rep want) then
            QCheck2.Test.fail_reportf "repair <> compute for destination %d" d;
          (* Destinations omitted from [rebase_changed] promised
             physically unchanged statics. *)
          if (not (Hashtbl.mem changed d)) && Route_static.get store d != before.(d)
          then
            QCheck2.Test.fail_reportf
              "destination %d omitted from rebase_changed but its record moved" d
        end
      done)
    steps;
  true

let test_churn_differential_sorted =
  qtest "repair/rebase = compute under churn (Lowest_id)" churn_case_gen
    (repaired_matches_compute ~tiebreak:Policy.Lowest_id)

let test_churn_differential_generic =
  qtest "repair/rebase = compute under churn (Hashed tiebreak)" churn_case_gen
    (repaired_matches_compute ~tiebreak:(Policy.Hashed 0x2f))

let test_outcome_coverage () =
  (* Runs after the two property suites (Alcotest executes this file's
     cases in registration order): all three migration outcomes must
     actually have occurred, else the differential proved less than it
     claims. *)
  Printf.printf "churn outcomes: shared=%d patched=%d dropped=%d\n%!" !shared_total
    !patched_total !dropped_total;
  check Alcotest.bool "surgical patches exercised" true (!patched_total > 0);
  check Alcotest.bool "compute fallbacks exercised" true (!dropped_total > 0);
  check Alcotest.bool "physically shared records exercised" true (!shared_total > 0)

(* ------------------------------------------------------------------ *)
(* Budgeted store: rebase must never leave a stale entry behind *)

let test_bounded_rebase_no_stale () =
  let params = { (Topology.Params.with_n Topology.Params.default 150) with seed = 21 } in
  let g = (Topology.Gen.generate params).graph in
  let n = Graph.n g in
  let per = Route_static.info_bytes (Route_static.compute g 0) in
  let budget = 25 * per in
  let store = Route_static.create ~budget_bytes:budget g in
  (* Touch every destination so the clock hand and eviction accounting
     are churned before the topology is. *)
  for d = 0 to n - 1 do
    ignore (Route_static.get store d)
  done;
  let st0 = Route_static.stats store in
  check Alcotest.bool "bounded store evicts under pressure" true
    (st0.Route_static.evictions > 0);
  let grown, delta =
    Topology.Evolve.grow_delta g ~new_stubs:20 ~secure_bias:1.0
      ~is_secure:(fun i -> i mod 3 = 0)
      ~seed:4
  in
  let j = Route_static.rebase store ~delta grown in
  let rs = Route_static.rebase_stats j in
  check Alcotest.bool "rebase saw resident entries" true
    (rs.Route_static.shared + rs.Route_static.patched + rs.Route_static.dropped > 0);
  let st1 = Route_static.stats store in
  check Alcotest.bool "store still bounded" true (Route_static.bounded store);
  check Alcotest.bool "byte budget carried over" true
    (st1.Route_static.budget_bytes > 0 && st1.Route_static.budget_bytes <= budget);
  check Alcotest.bool "eviction accounting within budget" true
    (st1.Route_static.cached_bytes <= st1.Route_static.budget_bytes);
  (* Every destination must now serve post-churn statics: the warm
     bounded store against a cold unbounded one. *)
  let cold = Route_static.create grown in
  for d = 0 to Graph.n grown - 1 do
    if not (Route_static.info_equal (Route_static.get store d) (Route_static.get cold d))
    then Alcotest.failf "bounded store serves stale statics for destination %d" d
  done;
  (* Same-node-count churn on top: withdraw an edge. Entries the
     rebase kept must be provably unaffected by the withdrawal. *)
  let (e_lo, e_hi), e_rel = List.hd (Graph.edges grown) in
  let delta2 =
    {
      Graph.base_n = Graph.n grown;
      grown = 0;
      ops = [ Graph.Edge_remove ((e_lo, e_hi), e_rel) ];
    }
  in
  let g2 = Graph.apply_delta grown delta2 in
  ignore (Route_static.rebase store ~delta:delta2 g2);
  let cold2 = Route_static.create g2 in
  for d = 0 to Graph.n g2 - 1 do
    if not (Route_static.info_equal (Route_static.get store d) (Route_static.get cold2 d))
    then
      Alcotest.failf
        "bounded store serves stale statics for destination %d after edge withdrawal" d
  done;
  let st2 = Route_static.stats store in
  check Alcotest.bool "still within budget after second rebase" true
    (st2.Route_static.cached_bytes <= st2.Route_static.budget_bytes)

(* ------------------------------------------------------------------ *)
(* Store snapshots: residency and counters round-trip, records rebuild *)

let snapshot_graph n =
  (Topology.Gen.generate { (Topology.Params.with_n Topology.Params.default n) with seed = 21 })
    .graph

(* [b] must be indistinguishable from [a]: same stats, same resident
   set with [info_equal] records, same image (reference bits, hands,
   counters, budget), and the same hit/miss/eviction sequence over a
   fixed [get] script that runs on both. *)
let check_same_store ~label a b =
  let lbl s = Printf.sprintf "%s: %s" label s in
  let n = Graph.n (Route_static.graph a) in
  check Alcotest.bool (lbl "stats") true (Route_static.stats a = Route_static.stats b);
  for d = 0 to n - 1 do
    match (Route_static.peek a d, Route_static.peek b d) with
    | None, None -> ()
    | Some x, Some y ->
        if not (Route_static.info_equal x y) then
          Alcotest.failf "%s: record of destination %d differs" label d
    | _ -> Alcotest.failf "%s: residency of destination %d differs" label d
  done;
  check Alcotest.bool (lbl "image") true (Route_static.snapshot a = Route_static.snapshot b);
  for k = 0 to (3 * n) - 1 do
    let d = ((k * 37) + (k * k)) mod n in
    let x = Route_static.get a d and y = Route_static.get b d in
    if not (Route_static.info_equal x y) then
      Alcotest.failf "%s: get %d (step %d) served different records" label d k;
    if Route_static.stats a <> Route_static.stats b then
      Alcotest.failf "%s: counters diverge at get step %d" label k
  done

(* [make ()] builds the store under test deterministically, so each
   worker count gets a fresh original to compare against. *)
let round_trip ~label make =
  List.iter
    (fun workers ->
      let t = make () in
      let restored =
        Route_static.of_snapshot ~workers (Route_static.graph t) (Route_static.snapshot t)
      in
      check_same_store ~label:(Printf.sprintf "%s, workers %d" label workers) t restored)
    [ 1; 2 ]

let test_snapshot_unbounded () =
  let g = snapshot_graph 120 in
  round_trip ~label:"unbounded" (fun () ->
      let t = Route_static.create ~budget_bytes:0 g in
      Route_static.ensure_all ~workers:1 t;
      for d = 0 to 40 do
        ignore (Route_static.get t d)
      done;
      t)

let test_snapshot_bounded () =
  let g = snapshot_graph 120 in
  let per = Route_static.info_bytes (Route_static.compute g 0) in
  round_trip ~label:"bounded" (fun () ->
      let t = Route_static.create ~budget_bytes:(25 * per) g in
      for k = 0 to 299 do
        ignore (Route_static.get t ((k * 13) mod 120))
      done;
      check Alcotest.bool "bounded store evicted" true
        ((Route_static.stats t).Route_static.evictions > 0);
      (* Hits on every other resident record set reference bits, so
         the image carries a mix of set and clear bits. *)
      for d = 0 to 119 do
        if d mod 2 = 0 && Option.is_some (Route_static.peek t d) then
          ignore (Route_static.get t d)
      done;
      t)

let test_snapshot_after_rebase () =
  let g = snapshot_graph 120 in
  let grown, delta =
    Topology.Evolve.grow_delta g ~new_stubs:20 ~secure_bias:1.0
      ~is_secure:(fun i -> i mod 3 = 0)
      ~seed:4
  in
  round_trip ~label:"after Delta rebase" (fun () ->
      let t = Route_static.create ~budget_bytes:0 g in
      Route_static.ensure_all ~workers:1 t;
      let j = Route_static.rebase ~kernel:Route_static.Delta ~workers:2 t ~delta grown in
      check Alcotest.bool "rebase patched records (slab-allocated)" true
        ((Route_static.rebase_stats j).Route_static.patched > 0);
      for d = 0 to 19 do
        ignore (Route_static.get t d)
      done;
      t)

let test_snapshot_size () =
  let n = 120 in
  let t = Route_static.create ~budget_bytes:0 (snapshot_graph n) in
  Route_static.ensure_all ~workers:1 t;
  check Alcotest.int "fully resident" n (Route_static.stats t).Route_static.cached;
  let bytes = String.length (Route_static.snapshot t) in
  if bytes > (16 * n) + 4096 then
    Alcotest.failf "snapshot of a fully resident N=%d store is %d bytes (> %d)" n bytes
      ((16 * n) + 4096)

(* ------------------------------------------------------------------ *)
(* Incremental cache: note_churn marks exactly the changed set *)

let test_note_churn_protocol () =
  let params = { (Topology.Params.with_n Topology.Params.default 60) with seed = 4 } in
  let g = (Topology.Gen.generate params).graph in
  let nn = Graph.n g in
  let cfg = Core.Config.default in
  let weight = Traffic.Weights.assign g ~cp_fraction:0.1 in
  let statics = Route_static.create g in
  let state = Core.State.create g ~early:(Asgraph.Metrics.top_by_degree g 3) in
  let inc = Core.Incremental.create statics in
  let scratch = Bgp.Forest.make_scratch nn in
  let sweep () =
    Core.Incremental.begin_round inc state;
    let secure = Core.State.secure_bytes state in
    let use_secp = Core.State.use_secp_bytes state ~stub_tiebreak:cfg.stub_tiebreak in
    for d = 0 to nn - 1 do
      if Core.Incremental.is_dirty inc d then begin
        let info = Route_static.get statics d in
        Bgp.Forest.compute info ~tiebreak:cfg.tiebreak ~secure ~use_secp ~weight scratch;
        let pairs = Core.Utility.contribution_pairs cfg.model g info scratch ~weight in
        Core.Incremental.store inc d ~sec_path:scratch.Bgp.Forest.sec_path ~pairs
      end
    done;
    Core.Incremental.dirty_count inc
  in
  check Alcotest.int "first round recomputes everything" nn (sweep ());
  (* Same-node-count churn between rounds: withdraw one edge, rebase
     the cache's store, feed rebase_changed to note_churn. *)
  let (e_lo, e_hi), e_rel = List.hd (Graph.edges g) in
  let delta =
    { Graph.base_n = nn; grown = 0; ops = [ Graph.Edge_remove ((e_lo, e_hi), e_rel) ] }
  in
  let g2 = Graph.apply_delta g delta in
  let j = Route_static.rebase statics ~delta g2 in
  let changed = Route_static.rebase_changed j in
  Core.Incremental.note_churn inc ~changed;
  (* No deployment flips happened, so the next round's dirty set is
     exactly the churned destinations. *)
  check Alcotest.int "churn round recomputes exactly the changed set"
    (List.length changed) (sweep ());
  (* The replayed utility vector (churned destinations recomputed,
     clean ones replayed from cache) must match a from-scratch sweep
     on the churned graph. *)
  let incremental = Array.make nn 0.0 in
  for d = 0 to nn - 1 do
    Core.Incremental.add_pairs (Core.Incremental.entry inc d) ~into:incremental
  done;
  check
    Alcotest.(array (float 1e-9))
    "replayed utilities match from-scratch on the churned graph"
    (Core.Utility.all cfg (Route_static.create g2) state ~weight)
    incremental;
  (* A growing delta invalidates the cache's node count: note_churn
     must refuse it. *)
  let grow_delta = { Graph.base_n = nn; grown = 1; ops = [] } in
  let g3 = Graph.apply_delta g2 grow_delta in
  ignore (Route_static.rebase statics ~delta:grow_delta g3);
  Alcotest.check_raises "growing churn requires a fresh cache"
    (Invalid_argument "Incremental.note_churn: cache does not match the store's graph")
    (fun () -> Core.Incremental.note_churn inc ~changed:[])

let () =
  Alcotest.run "statics_churn"
    [
      ( "differential",
        [
          test_churn_differential_sorted;
          test_churn_differential_generic;
          Alcotest.test_case "all migration outcomes exercised" `Quick
            test_outcome_coverage;
        ] );
      ( "store",
        [
          Alcotest.test_case "bounded rebase serves no stale entry" `Quick
            test_bounded_rebase_no_stale;
          Alcotest.test_case "snapshot round trip: unbounded" `Quick
            test_snapshot_unbounded;
          Alcotest.test_case "snapshot round trip: bounded, evicted" `Quick
            test_snapshot_bounded;
          Alcotest.test_case "snapshot round trip: after Delta rebase" `Quick
            test_snapshot_after_rebase;
          Alcotest.test_case "snapshot size stays O(n)" `Quick test_snapshot_size;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "note_churn marks exactly the changed set" `Quick
            test_note_churn_protocol;
        ] );
    ]
