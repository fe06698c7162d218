(* Tests for the domain pool (the DryadLINQ stand-in): per-index
   results must be identical regardless of worker count, scheduling
   or injected faults. *)

module Pool = Parallel.Pool

let check = Alcotest.check

(* [body i] for every index through [Pool.parallel_for], its value
   published into slot [i]. *)
let slots ?(sv = Pool.no_supervision) ?(grain = 8) ~workers tasks f =
  let out = Array.make tasks 0 in
  Pool.parallel_for sv ~workers ~tasks ~grain ~scratch:ignore (fun () i -> out.(i) <- f i);
  out

let sum_slots ?sv ~workers tasks = Array.fold_left ( + ) 0 (slots ?sv ~workers tasks Fun.id)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_slots_sum () =
  let tasks = 1000 in
  let expected = tasks * (tasks - 1) / 2 in
  List.iter
    (fun workers ->
      List.iter
        (fun (name, sv) ->
          check Alcotest.int
            (Printf.sprintf "workers=%d %s" workers name)
            expected (sum_slots ~sv ~workers tasks))
        [ ("unsupervised", Pool.no_supervision); ("supervised", Pool.supervision ()) ])
    [ 1; 2; 4; 7 ]

let test_per_index_slots () =
  (* Per-index slot publication must equal Array.init for every
     (workers, tasks, grain) shape, including uneven tails where the
     last chunk is shorter than the grain. *)
  let f i = (i * 7) + 3 in
  List.iter
    (fun (workers, tasks, grain) ->
      check
        Alcotest.(array int)
        (Printf.sprintf "workers=%d tasks=%d grain=%d" workers tasks grain)
        (Array.init tasks f)
        (slots ~grain ~workers tasks f))
    [ (1, 100, 8); (3, 17, 4); (4, 100, 8); (4, 3, 8); (7, 97, 1); (2, 64, 64) ]

let test_scratch_per_worker () =
  (* Each participating worker builds one scratch and reuses it for
     every chunk it claims: the per-scratch counts add up to the task
     count whatever the grouping, and there are never more scratches
     than workers. *)
  let tasks = 500 in
  List.iter
    (fun workers ->
      let made = Atomic.make [] in
      Pool.parallel_for Pool.no_supervision ~workers ~tasks ~grain:8
        ~scratch:(fun () ->
          let r = ref 0 in
          let rec push () =
            let cur = Atomic.get made in
            if not (Atomic.compare_and_set made cur (r :: cur)) then push ()
          in
          push ();
          r)
        (fun r _ -> incr r);
      let scratches = Atomic.get made in
      check Alcotest.int
        (Printf.sprintf "workers=%d tasks covered" workers)
        tasks
        (List.fold_left (fun a r -> a + !r) 0 scratches);
      check Alcotest.bool
        (Printf.sprintf "workers=%d at most one scratch per worker" workers)
        true
        (List.length scratches >= 1 && List.length scratches <= workers))
    [ 1; 2; 4; 7 ]

let test_workers1_in_order () =
  (* workers = 1 is the same loop with no helpers: the calling domain
     claims every chunk in ascending order on one scratch, so even an
     order-sensitive scratch sees tasks in index order. *)
  let tasks = 53 in
  let made = ref 0 in
  let seen = ref [] in
  Pool.parallel_for Pool.no_supervision ~workers:1 ~tasks ~grain:4
    ~scratch:(fun () -> incr made)
    (fun () i -> seen := i :: !seen);
  check Alcotest.(list int) "ascending" (List.init tasks (fun i -> i)) (List.rev !seen);
  check Alcotest.int "one scratch" 1 !made

let test_more_workers_than_tasks () =
  check Alcotest.(array int) "clamped" [| 1; 2; 3 |] (slots ~grain:1 ~workers:16 3 succ)

let test_zero_tasks () =
  (* tasks = 0 returns at once, for any worker count and policy,
     without building scratch or calling the body. *)
  List.iter
    (fun (workers, sv) ->
      Pool.parallel_for sv ~workers ~tasks:0 ~grain:4
        ~scratch:(fun () -> Alcotest.fail "scratch built with zero tasks")
        (fun () _ -> Alcotest.fail "body called with zero tasks"))
    [
      (1, Pool.no_supervision);
      (3, Pool.no_supervision);
      (4, Pool.supervision ~retries:2 ~timeout_ms:50 ());
    ]

let test_recommended_workers_positive () =
  check Alcotest.bool "at least one" true (Pool.recommended_workers () >= 1);
  (* The clamp itself, independent of this host's core count: a
     single-core count (and degenerate inputs) still yields one
     worker, more cores leave one for the coordinating domain. *)
  check Alcotest.int "1 core -> 1 worker" 1 (Pool.workers_of_domain_count 1);
  check Alcotest.int "0 cores -> 1 worker" 1 (Pool.workers_of_domain_count 0);
  check Alcotest.int "-3 cores -> 1 worker" 1 (Pool.workers_of_domain_count (-3));
  check Alcotest.int "8 cores -> 7 workers" 7 (Pool.workers_of_domain_count 8);
  check Alcotest.bool "default is positive" true (Pool.default_workers () >= 1)

let bits =
  Alcotest.testable
    (fun ppf f -> Format.fprintf ppf "%h" f)
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let test_parallel_utility_matches_sequential () =
  (* The real use: per-destination addend streams computed across
     workers, replayed serially in destination order, must equal the
     sequential [Utility.all] bit for bit. *)
  let params = Topology.Params.with_n Topology.Params.default 150 in
  let built = Topology.Gen.generate params in
  let g = built.graph in
  let n = Asgraph.Graph.n g in
  let statics = Bgp.Route_static.create g in
  (* Prime the per-destination cache sequentially: the cache itself is
     not thread-safe, which is exactly why workers get local scratch. *)
  for d = 0 to n - 1 do
    ignore (Bgp.Route_static.get statics d)
  done;
  let weight = Traffic.Weights.assign g ~cp_fraction:0.1 in
  let state = Core.State.create g ~early:(Asgraph.Metrics.top_by_degree g 3) in
  let cfg = { Core.Config.default with tiebreak = Bgp.Policy.Lowest_id } in
  let secure = Core.State.secure_bytes state in
  let use_secp = Core.State.use_secp_bytes state ~stub_tiebreak:cfg.stub_tiebreak in
  let compute workers =
    let pairs = Array.make n ([||], [||]) in
    Pool.parallel_for Pool.no_supervision ~workers ~tasks:n ~grain:8
      ~scratch:(fun () -> Bgp.Forest.make_scratch n)
      (fun scratch d ->
        let info = Bgp.Route_static.get statics d in
        Bgp.Forest.compute info ~tiebreak:cfg.tiebreak ~secure ~use_secp ~weight scratch;
        pairs.(d) <- Core.Utility.contribution_pairs cfg.model g info scratch ~weight);
    let into = Array.make n 0.0 in
    Array.iter (fun p -> Core.Utility.add_pairs p ~into) pairs;
    into
  in
  let seq = Core.Utility.all cfg statics state ~weight in
  check Alcotest.(array bits) "workers=1" seq (compute 1);
  check Alcotest.(array bits) "workers=4" seq (compute 4)

let metric name = Option.value (Nsobs.Metrics.value name) ~default:0.0

let test_engine_fanouts_on_bank () =
  (* Every engine fan-out — statics prefill, baseline blocks, round
     sweeps — leases the parked bank: with metrics on, a 2-worker run
     takes bank leases, never falls back to fresh domains, and spawns
     only the helpers that grow the bank. *)
  let params = Topology.Params.with_n Topology.Params.default 150 in
  let g = (Topology.Gen.generate params).graph in
  let weight = Traffic.Weights.assign g ~cp_fraction:0.1 in
  let state = Core.State.create g ~early:(Asgraph.Metrics.top_by_degree g 3) in
  let cfg = { Core.Config.default with workers = 2 } in
  let names =
    [
      "pool_bank_lease_total";
      "pool_spawn_fallback_total";
      "pool_domain_spawn_total";
      "pool_bank_workers";
    ]
  in
  Nsobs.Metrics.set_enabled true;
  let before = List.combine names (List.map metric names) in
  Fun.protect
    ~finally:(fun () -> Nsobs.Metrics.set_enabled false)
    (fun () -> ignore (Core.Engine.run cfg (Bgp.Route_static.create g) ~weight ~state));
  let delta name = metric name -. List.assoc name before in
  check Alcotest.bool "bank leases taken" true (delta "pool_bank_lease_total" > 0.0);
  check (Alcotest.float 0.0) "no spawn fallbacks" 0.0 (delta "pool_spawn_fallback_total");
  check (Alcotest.float 0.0) "spawns only grow the bank" (delta "pool_bank_workers")
    (delta "pool_domain_spawn_total")

(* ------------------------------------------------------------------ *)
(* Supervision *)

let test_retries_recover () =
  (* Injected faults within the budget are invisible: same sum, and
     the retry callback saw the contained failures. *)
  let tasks = 200 in
  let expected = tasks * (tasks - 1) / 2 in
  let faults = Nsutil.Faults.create ~rate:1.0 ~budget:2 ~seed:3 "pool.task" in
  let retried = ref 0 in
  let sv =
    Pool.supervision ~retries:2 ~backoff:0.0 ~faults
      ~on_retry:(fun ~attempt:_ ~index:_ ~error:_ -> incr retried)
      ()
  in
  check Alcotest.int "sum unchanged" expected (sum_slots ~sv ~workers:4 tasks);
  check Alcotest.bool "faults actually fired" true (Nsutil.Faults.fired faults = 2);
  check Alcotest.bool "retries happened" true (!retried > 0)

let test_transient_failure_recovered () =
  (* A transient failure — fails on first execution of index 19, then
     succeeds on re-execution — must be absorbed by chunk retries, with
     every slot still correct. *)
  let first = Atomic.make true in
  let out =
    slots ~sv:(Pool.supervision ~retries:2 ~backoff:0.0 ()) ~workers:4 64 (fun i ->
        if i = 19 && Atomic.compare_and_set first true false then
          failwith "transient fault at 19";
        i * 2)
  in
  check Alcotest.(array int) "all slots published" (Array.init 64 (fun i -> i * 2)) out;
  check Alcotest.bool "the fault actually fired" true (not (Atomic.get first))

let test_serial_fallback () =
  (* retries = 1 means the single retry IS the final serial attempt:
     the injected failure must be absorbed by the calling domain's
     re-execution, with the sum unchanged. *)
  let faults = Nsutil.Faults.create ~rate:1.0 ~budget:1 ~seed:5 ~after:10 "pool.task" in
  let sv = Pool.supervision ~retries:1 ~backoff:0.0 ~faults () in
  let r = sum_slots ~sv ~workers:4 100 in
  check Alcotest.int "one injection absorbed by the serial retry" (100 * 99 / 2) r;
  check Alcotest.int "the injection fired" 1 (Nsutil.Faults.fired faults)

let test_scratch_failure_attributed () =
  (* A scratch builder that raises once fails the chunk that forced it,
     attributed to the chunk's first index; the retry builds fresh
     scratch and every slot is published. *)
  let first = Atomic.make true in
  let out = Array.make 40 (-1) in
  Pool.parallel_for
    (Pool.supervision ~retries:1 ~backoff:0.0 ())
    ~workers:1 ~tasks:40 ~grain:8
    ~scratch:(fun () ->
      if Atomic.compare_and_set first true false then failwith "no scratch today")
    (fun () i -> out.(i) <- i);
  check Alcotest.(array int) "all slots published" (Array.init 40 Fun.id) out;
  match
    Pool.parallel_for Pool.no_supervision ~workers:1 ~tasks:20 ~grain:8
      ~scratch:(fun () -> failwith "never")
      (fun () _ -> ())
  with
  | () -> Alcotest.fail "expected Supervision_failed"
  | exception Pool.Supervision_failed failures ->
      check Alcotest.(list int) "each chunk's first index" [ 0; 8; 16 ]
        (List.map (fun f -> f.Pool.index) failures)

let test_failure_attribution () =
  (* A deterministic always-failing task index: supervision must name
     it, with the attempt count, after exhausting the budget. *)
  let attempts = ref [] in
  let sv =
    Pool.supervision ~retries:2 ~backoff:0.0
      ~on_retry:(fun ~attempt ~index ~error:_ -> attempts := (attempt, index) :: !attempts)
      ()
  in
  match
    slots ~sv ~workers:4 64 (fun i -> if i = 37 then failwith "task 37 is cursed" else i)
  with
  | _ -> Alcotest.fail "expected Supervision_failed"
  | exception Pool.Supervision_failed [ { Pool.index; attempts = n; error } ] ->
      check Alcotest.int "failing index" 37 index;
      (* initial attempt + 2 retries, the last serial *)
      check Alcotest.int "attempts" 3 n;
      check Alcotest.bool "error preserved" true (contains error "cursed");
      check Alcotest.bool "on_retry saw the index" true
        (List.for_all (fun (_, i) -> i = 37) !attempts && List.length !attempts = 2)
  | exception Pool.Supervision_failed l ->
      Alcotest.failf "expected exactly one failure, got %d" (List.length l)

let test_failure_attribution_zero_budget () =
  (* With a zero retry budget a deterministically cursed index must
     surface after the first attempt, attributed by task index. *)
  match
    slots
      ~sv:(Pool.supervision ~retries:0 ~backoff:0.0 ())
      ~workers:4 64
      (fun i -> if i = 42 then failwith "task 42 is cursed" else i)
  with
  | _ -> Alcotest.fail "expected Supervision_failed"
  | exception Pool.Supervision_failed [ { Pool.index; attempts; error } ] ->
      check Alcotest.int "failing index" 42 index;
      check Alcotest.int "one attempt" 1 attempts;
      check Alcotest.bool "error preserved" true (contains error "cursed")
  | exception Pool.Supervision_failed l ->
      Alcotest.failf "expected exactly one failure, got %d" (List.length l)

let test_multiple_failures_aggregated () =
  (* Failures in distinct chunks are all reported, sorted by task
     index, not just the first one. *)
  match
    slots
      ~sv:(Pool.supervision ~retries:0 ~backoff:0.0 ())
      ~workers:4 100
      (fun i -> if i mod 30 = 7 then failwith "boom" else i)
  with
  | _ -> Alcotest.fail "expected Supervision_failed"
  | exception Pool.Supervision_failed failures ->
      let indices = List.map (fun f -> f.Pool.index) failures in
      check Alcotest.bool "ascending indices" true (List.sort compare indices = indices);
      (* 7, 37, 67 and 97 fall in four distinct 8-task chunks *)
      check Alcotest.(list int) "one failure per chunk" [ 7; 37; 67; 97 ] indices

let test_float_parity_under_faults () =
  (* Per-index float slots are bit-identical between a clean run and a
     fault-injected run with retries: re-running an index overwrites
     its slot with the same value. *)
  let run sv =
    let out = Array.make 300 0.0 in
    Pool.parallel_for sv ~workers:4 ~tasks:300 ~grain:8 ~scratch:ignore (fun () i ->
        out.(i) <- 1.0 /. float_of_int (i + 1));
    out
  in
  let clean = run Pool.no_supervision in
  let faults = Nsutil.Faults.create ~rate:0.05 ~budget:3 ~seed:17 "pool.task" in
  let faulted = run (Pool.supervision ~retries:2 ~backoff:0.0 ~faults ()) in
  check Alcotest.(array bits) "bit-identical floats" clean faulted;
  check Alcotest.int "faults fired" 3 (Nsutil.Faults.fired faults)

(* ------------------------------------------------------------------ *)
(* Watchdog: hang detection, cancellation, drain, and the backoff
   schedule *)

let hang_plan ~after =
  Nsutil.Faults.create ~rate:1.0 ~budget:1 ~after ~seed:7 "pool.hang"

let test_watchdog_recovers_hung_task () =
  (* One injected hang stalls a chunk until the watchdog cancels it;
     the retry re-executes the chunk and the sum is unchanged. *)
  let tasks = 100 in
  let expected = tasks * (tasks - 1) / 2 in
  let faults = hang_plan ~after:20 in
  let retried = ref [] in
  let sv =
    Pool.supervision ~retries:2 ~backoff:0.0 ~timeout_ms:50 ~faults
      ~on_retry:(fun ~attempt:_ ~index:_ ~error -> retried := error :: !retried)
      ()
  in
  check Alcotest.int "sum unchanged" expected (sum_slots ~sv ~workers:4 tasks);
  check Alcotest.int "the hang fired" 1 (Nsutil.Faults.fired faults);
  check Alcotest.bool "a retry absorbed the cancelled chunk" true (!retried <> [])

let test_watchdog_unarmed_hang_degrades () =
  (* With no timeout armed the injected hang must degrade to an
     immediate raise — never a deadlock — and the retry machinery
     absorbs it like any other fault. *)
  let tasks = 64 in
  let sv = Pool.supervision ~retries:2 ~backoff:0.0 ~faults:(hang_plan ~after:5) () in
  check Alcotest.int "sum unchanged" (tasks * (tasks - 1) / 2) (sum_slots ~sv ~workers:4 tasks)

let test_watchdog_drain () =
  (* A hang in one chunk is cancelled, the calling domain drains the
     chunks the cancelled worker never claimed, and the retry
     republishes the failed chunk's slots — no index lost, every slot
     correct. With one worker the cancelled worker is the caller
     itself, so everything after the hung chunk comes from the
     drain. *)
  List.iter
    (fun workers ->
      let tasks = 120 in
      let sv =
        Pool.supervision ~retries:2 ~backoff:0.0 ~timeout_ms:50
          ~faults:(hang_plan ~after:30) ()
      in
      check
        Alcotest.(array int)
        (Printf.sprintf "workers=%d all slots published" workers)
        (Array.init tasks (fun i -> i * 3))
        (slots ~sv ~workers tasks (fun i -> i * 3)))
    [ 1; 4 ]

let test_backoff_delay_schedule () =
  (* The retry sleep schedule is a pure function of (jitter_seed,
     attempt, index): reproducible run to run, capped, and decorrelated
     across indices. *)
  let mk () = Pool.supervision ~retries:5 ~backoff:0.1 ~backoff_cap:0.3 ~jitter_seed:42 () in
  let a = mk () and b = mk () in
  for attempt = 1 to 6 do
    for index = 0 to 3 do
      check (Alcotest.float 0.0)
        (Printf.sprintf "deterministic attempt=%d index=%d" attempt index)
        (Pool.backoff_delay a ~attempt ~index)
        (Pool.backoff_delay b ~attempt ~index)
    done
  done;
  (* Exponential base: attempt 2 doubles to attempt 3 before the cap
     bites; the jitter factor lives in [0.5, 1.0]. *)
  let d2 = Pool.backoff_delay a ~attempt:2 ~index:0 in
  check Alcotest.bool "positive" true (d2 > 0.0);
  check Alcotest.bool "within base" true (d2 >= 0.05 && d2 <= 0.1);
  (* Far attempts saturate at the cap (times the jitter factor). *)
  let d9 = Pool.backoff_delay a ~attempt:9 ~index:0 in
  check Alcotest.bool "capped" true (d9 <= 0.3 && d9 >= 0.15);
  (* Distinct indices draw distinct jitter: retrying chunks never
     synchronize their sleeps. *)
  check Alcotest.bool "decorrelated across indices" true
    (Pool.backoff_delay a ~attempt:4 ~index:1 <> Pool.backoff_delay a ~attempt:4 ~index:2);
  (* backoff = 0 disables sleeping entirely. *)
  check (Alcotest.float 0.0) "zero backoff" 0.0
    (Pool.backoff_delay (Pool.supervision ~retries:2 ~backoff:0.0 ()) ~attempt:5 ~index:0)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "per-index slots sum" `Quick test_slots_sum;
          Alcotest.test_case "per-index slots = Array.init" `Quick test_per_index_slots;
          Alcotest.test_case "scratch per worker" `Quick test_scratch_per_worker;
          Alcotest.test_case "workers=1 is in-order serial" `Quick test_workers1_in_order;
          Alcotest.test_case "more workers than tasks" `Quick test_more_workers_than_tasks;
          Alcotest.test_case "zero tasks" `Quick test_zero_tasks;
          Alcotest.test_case "recommended workers" `Quick test_recommended_workers_positive;
          Alcotest.test_case "parallel utility = sequential" `Quick
            test_parallel_utility_matches_sequential;
          Alcotest.test_case "engine fan-outs lease the bank" `Quick
            test_engine_fanouts_on_bank;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "retries recover" `Quick test_retries_recover;
          Alcotest.test_case "transient failure recovered" `Quick
            test_transient_failure_recovered;
          Alcotest.test_case "serial fallback" `Quick test_serial_fallback;
          Alcotest.test_case "scratch failure attributed" `Quick
            test_scratch_failure_attributed;
          Alcotest.test_case "failure attribution" `Quick test_failure_attribution;
          Alcotest.test_case "failure attribution, zero budget" `Quick
            test_failure_attribution_zero_budget;
          Alcotest.test_case "multiple failures aggregated" `Quick
            test_multiple_failures_aggregated;
          Alcotest.test_case "float parity under faults" `Quick
            test_float_parity_under_faults;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "hung task recovered" `Quick test_watchdog_recovers_hung_task;
          Alcotest.test_case "unarmed hang degrades" `Quick
            test_watchdog_unarmed_hang_degrades;
          Alcotest.test_case "drain under hang" `Quick test_watchdog_drain;
          Alcotest.test_case "backoff schedule" `Quick test_backoff_delay_schedule;
        ] );
    ]
