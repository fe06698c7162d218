module Graph = Asgraph.Graph
module Csr = Nsutil.Csr
module Route_static = Bgp.Route_static
module Forest = Bgp.Forest
module Pool = Parallel.Pool
module Phase = Nsobs.Phase

(* Observability hooks. Every hook sits behind Nsobs's static
   [enabled] checks and only observes — phase spans and histograms
   ({!Nsobs.Phase}) time existing sections, counters publish at round
   or end-of-run granularity — so an instrumented run is bit-identical
   to an uninstrumented one (test_obs proves it). *)
let counter help name = lazy (Nsobs.Metrics.counter ~help name)
let gauge help name = lazy (Nsobs.Metrics.gauge ~help name)
let m_rounds = counter "deployment-game rounds executed" "engine_rounds_total"
let m_flips_on = counter "candidates that turned secure routing on" "engine_flips_on_total"
let m_flips_off = counter "candidates that turned secure routing off" "engine_flips_off_total"

let m_flips_hist =
  lazy
    (Nsobs.Metrics.histogram ~help:"simultaneous flips per round"
       ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]
       "engine_flips_per_round")

let m_dirty_hist =
  lazy
    (Nsobs.Metrics.histogram
       ~help:"incremental dirty-set size per round (destinations recomputed)"
       ~buckets:[| 0.; 10.; 100.; 1000.; 10000.; 100000. |]
       "engine_dirty_set_size")

let m_statics_hits = counter "route-statics store hits" "statics_hit_total"
let m_statics_misses = counter "route-statics store misses (rows built)" "statics_miss_total"

let m_statics_evictions =
  counter "route-statics rows evicted by the byte budget" "statics_eviction_total"

let m_statics_bytes = gauge "route-statics bytes cached at end of run" "statics_cached_bytes"
let m_dest_recomputed = counter "destination forests recomputed" "engine_dest_recomputed_total"

let m_dest_reused =
  counter "destination forests served from the incremental cache" "engine_dest_reused_total"

let m_checkpoint_skips =
  counter "checkpoint writes skipped on I/O failure under the degradation ladder"
    "engine_checkpoint_skips_total"

let m_current_round = gauge "round currently executing" "engine_current_round"

type round_record = {
  round : int;
  utilities : float array;
  projected : float array;
  turned_on : int list;
  turned_off : int list;
  secure_as : int;
  secure_isp : int;
  secure_stub : int;
}

type termination = Stable | Oscillation of { first_round : int } | Max_rounds

type result = {
  baseline : float array;
  initial_secure_as : int;
  initial_secure_isp : int;
  rounds : round_record list;
  final : State.t;
  termination : termination;
  dest_recomputed : int;
  dest_reused : int;
  statics_hits : int;
  statics_misses : int;
  statics_evictions : int;
  checkpoint_skips : int;
  statics_store : Route_static.t;
}

let sec_of bytes i = Bytes.unsafe_get bytes i = '\001'

(* Bit test over the incremental cache's packed secure-route flags
   ([Incremental.sec_bit], inlined locally: the call would not inline
   across modules on the non-flambda compiler and this runs per tie
   element in the flip probes). *)
let[@inline] bit_get bits i =
  Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* Does node [i]'s tiebreak set offer a fully secure route, per the
   bit-packed forest flags [sec_bits]? Direct offset-range scan over
   the compact tie CSR — this runs per (destination, candidate) pair
   in the flip probes, so it must not allocate. *)
let tie_has_secure (info : Route_static.dest_info) sec_bits i =
  let tie_off = info.Route_static.tie_off in
  let tie = info.Route_static.tie in
  let hi = Nsutil.I32.unsafe_get tie_off (i + 1) in
  let rec loop k =
    k < hi && (bit_get sec_bits (Nsutil.I32.unsafe_get tie k) || loop (k + 1))
  in
  loop (Nsutil.I32.unsafe_get tie_off i)

(* Would flipping candidate [nc] change the routing tree of
   destination [d]? Conservative (may say yes needlessly), never
   wrongly says no; see the C.4 discussion in the interface. Split in
   two stages so the statics record — which a byte-budgeted store may
   have to recompute — is only fetched when the answer actually
   depends on it: [flip_cheap] decides from the graph, the round-start
   participation [secure] and the cached forest bits [sec_bits] alone,
   and returns [`Need_info] only when the tiebreak sets must be
   consulted. *)
let flip_cheap ~g ~secure ~sec_bits ~was_on ~d nc =
  if was_on then begin
    (* Turning off removes only nc's own participation (stub upgrades
       are sticky): routing can change only where nc currently holds
       or offers a fully secure route — including d = nc itself, for
       which sec_bits nc = secure nc = 1. *)
    if sec_of secure d && bit_get sec_bits nc then `Admit else `Skip
  end
  else begin
    let d_gets_secured =
      d = nc || (Graph.is_stub g d && (not (sec_of secure d)) && Csr.mem_row g.providers d nc)
    in
    if not (sec_of secure d || d_gets_secured) then `Skip
    else if d_gets_secured then `Admit
    else `Need_info
  end

(* The [`Need_info] continuation: does the flip reach [d]'s routing
   through a tiebreak set — the candidate's own, or (under the stub
   tiebreak) that of a stub customer the flip newly secures? *)
let flip_with_info ~cfg ~secure ~(info : Route_static.dest_info) ~sec_bits
    ~(stubs : Csr.t) nc =
  tie_has_secure info sec_bits nc
  || cfg.Config.stub_tiebreak
     && begin
          (* [nc]'s stub customers, straight off the CSR row: this
             scan runs per (destination, candidate) pair, so no boxed
             lists or closures. *)
          let off = stubs.Csr.offsets and dat = stubs.Csr.data in
          let hi = Nsutil.I32.unsafe_get off (nc + 1) in
          let rec loop k =
            k < hi
            && ((let s = Nsutil.I32.unsafe_get dat k in
                 (not (sec_of secure s))
                 && Route_static.reachable info s
                 && tie_has_secure info sec_bits s)
               || loop (k + 1))
          in
          loop (Nsutil.I32.unsafe_get off nc)
        end

(* The byte-level effect of flipping one candidate: participation
   bytes after the flip and at round start, for exactly the nodes the
   flip touches (the candidate plus any newly simplex stubs). Workers
   apply/revert these on their local byte copies, so the shared state
   is never mutated during a sweep. *)
type flip_delta = {
  after : (int * char * char) array;
  before : (int * char * char) array;
}

let probe_deltas state ~secure ~use_secp ~was_on candidates_arr =
  let snap nodes =
    Array.map (fun i -> (i, Bytes.get secure i, Bytes.get use_secp i)) nodes
  in
  Array.mapi
    (fun ci nc ->
      if was_on.(ci) then begin
        let nodes = [| nc |] in
        let before = snap nodes in
        State.disable state nc;
        let after = snap nodes in
        ignore (State.enable state nc);
        { after; before }
      end
      else begin
        let added = State.enable state nc in
        let nodes = Array.of_list (nc :: added) in
        let after = snap nodes in
        State.undo_enable state nc ~added;
        let before = snap nodes in
        { after; before }
      end)
    candidates_arr

let apply_delta bytes_sec bytes_secp edits =
  Array.iter
    (fun (i, s, u) ->
      Bytes.set bytes_sec i s;
      Bytes.set bytes_secp i u)
    edits

(* Per-worker sweep workspace. [ws_base] holds the base (round-start)
   forest of destination [ws_have_base], lazily (re)computed — under
   the delta kernel one base compute is amortized over every admitted
   candidate probe of that destination; [ws_flip] is the full kernel's
   probe target; [ws_sec]/[ws_secp] are the worker's private
   participation byte copies the probe deltas are applied to.
   [ws_bd] is the worker's statics builder: a byte-budgeted store
   streams missing records through it ({!Route_static.stream_get})
   with no per-miss allocation; [ws_rs] the incremental cache's
   store scratch; [ws_ci]/[ws_c] collect the destination's admitted
   (candidate, contribution) probes before they are published as one
   compact row. *)
type sweep_ws = {
  ws_base : Forest.scratch;
  ws_flip : Forest.scratch;
  ws_rep : Forest.repairer;
  ws_sec : Bytes.t;
  ws_secp : Bytes.t;
  ws_bd : Route_static.builder;
  ws_rs : Incremental.scratch;
  ws_ci : int array;
  ws_c : float array;
  mutable ws_have_base : int;  (* destination resident in ws_base; -1 = none *)
}

type checkpoint_spec = { path : string; every : int }

(* A checkpoint consumer that frames and persists the payload itself —
   the churn runner wraps engine progress into [Checkpoint.Churn]
   frames together with its epoch cursor, so one file covers the whole
   evolution run. *)
type snapshot_sink = { s_every : int; s_save : round:int -> payload:string -> unit }

(* The full cross-round memory of a run, as checkpointed every K
   rounds: the deployment state (with its mark snapshot), the
   oscillation table in insertion order, the round records and stats
   counters, the incremental cache's entries and the statics store's
   image (no records: resume recomputes the resident ones). Restoring
   all of it makes a resumed run replay the uninterrupted run
   bit-for-bit — including the cache-hit and statics counters.
   Serialized with [Marshal] (exact for floats/bytes); {!Checkpoint}
   authenticates the frame before any unmarshaling happens. *)
type progress = {
  p_round : int;
  p_state : string;
  p_seen : (int * string) list;
      (** oscillation table, round ascending ({!State.fp_serialize}
          fingerprints — the table never needs more than the
          deployment sets) *)
  p_rounds_rev : round_record list;
  p_recomputed : int;
  p_reused : int;
  p_baseline : float array;
  p_initial_secure_as : int;
  p_initial_secure_isp : int;
  p_inc : string;
  p_statics : string;
      (** {!Route_static.snapshot} of the warm statics store at
          checkpoint time: residency, reference bits, clock hands,
          budget and hit/miss/eviction counters, but no records —
          resuming recomputes exactly the resident records, so a
          resumed run reports statistics byte-identical to an
          uninterrupted one. *)
  p_statics_base : int * int * int;
      (** (hits, misses, evictions) of the store when the original run
          started — the baseline the run's reported statics deltas are
          taken against, which the restored store's counters alone
          cannot recover. *)
}

(* SHA-256 over every input that determines results: config fields
   (except [workers]/[retries]/[flip_kernel]/[statics_kernel], which
   provably do not affect results — the parity suite holds
   full-vs-delta flip kernels and full-vs-delta statics maintenance
   bit-identical, and the statics byte budget is likewise excluded,
   since a bounded store only trades recompute for memory), topology,
   traffic weights and the initial deployment state. A checkpoint
   resumes only against the digest it was written under. *)
let input_digest (cfg : Config.t) statics ~weight ~state =
  let g = Route_static.graph statics in
  let ctx = Scrypto.Sha256.init () in
  let feed = Scrypto.Sha256.feed ctx in
  let ff x = feed (Printf.sprintf "%Lx;" (Int64.bits_of_float x)) in
  feed "sbgp-engine-ckpt-v1\n";
  ff cfg.theta;
  ff cfg.theta_off;
  feed (Config.utility_model_to_string cfg.model);
  feed (Printf.sprintf ";%b;" cfg.stub_tiebreak);
  feed
    (match cfg.tiebreak with
    | Bgp.Policy.Lowest_id -> "tb:lowest"
    | Bgp.Policy.Hashed seed -> Printf.sprintf "tb:hashed:%d" seed
    | Bgp.Policy.Ranked _ -> "tb:ranked");
  ff cfg.cp_fraction;
  feed
    (Printf.sprintf ";%d;%b;%b;%b;" cfg.max_rounds cfg.allow_turn_off cfg.disable_secp
       cfg.disable_simplex);
  ff cfg.theta_jitter;
  feed (Printf.sprintf "%d\ngraph\n" cfg.jitter_seed);
  feed (Asgraph.Graph_io.to_string g);
  feed "weights\n";
  Array.iter ff weight;
  feed "\nstate\n";
  feed (State.serialize state);
  Scrypto.Sha256.finalize ctx

(* One engine run: its inputs, the tables derived from them once, and
   the cross-round memory a checkpoint carries ({!progress}). Each
   phase of the round is a function over this record; [run_internal]
   is only the loop that calls them. *)
type run_ctx = {
  cfg : Config.t;
  g : Graph.t;
  n : int;
  workers : int;
  statics : Route_static.t;
  weight : float array;
  state : State.t;
  faults : Nsutil.Faults.t option;
  checkpoint : checkpoint_spec option;
  sink : snapshot_sink option;
  digest : string;
  sv : Pool.supervision;
  grain : int;  (* destination-chunk size of every fan-out *)
  stubs : Csr.t;  (* stub customers per ISP, for the projection filters *)
  theta_factor : float array;  (* per-ISP threshold jitter (Section 8.2) *)
  inc : Incremental.t;
  seen : (int, (int * State.fingerprint) list) Hashtbl.t;
  mutable seen_order : (int * State.fingerprint) list;
  mutable baseline : float array;
  mutable initial_secure_as : int;
  mutable initial_secure_isp : int;
  mutable round : int;
  mutable rounds : round_record list;  (* newest first *)
  mutable recomputed : int;
  mutable reused : int;
  mutable checkpoint_skips : int;
  stats0 : Route_static.stats;  (* store counters when this process started *)
  stats_base : int * int * int;
      (* (hits, misses, evictions) the result's statics deltas are
         taken against: on a resume, the original run's start *)
}

(* What one round's phases hand each other: the round-start
   participation copies the workers flip, the candidates with their
   byte deltas, and the sweep's per-destination probe rows. *)
type round_ctx = {
  t0 : float;  (* journal clock at round start; 0 when the journal is off *)
  sec0 : Bytes.t;
  secp0 : Bytes.t;
  candidates : int array;  (* ascending node id *)
  was_on : bool array;
  deltas : flip_delta array;
  seeds : int array array;  (* repair frontier seeds per candidate *)
  rows : (int array * float array) option array;
}

(* Oscillation detection: hash-bucketed fingerprints (deployment sets
   only, n/4 bytes each — not full state copies) of every visited
   state, with exact comparison on hash hits. The insertion-order list
   serializes the table for checkpoints; replaying insertions rebuilds
   identical buckets. *)
let insert_seen r round fp =
  let signature = State.fp_signature fp in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt r.seen signature) in
  Hashtbl.replace r.seen signature ((round, fp) :: bucket);
  r.seen_order <- (round, fp) :: r.seen_order

let remember r =
  let signature = State.signature r.state in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt r.seen signature) in
  match List.find_opt (fun (_, old) -> State.fp_matches old r.state) bucket with
  | Some (first_round, _) -> Some first_round
  | None ->
      insert_seen r r.round (State.fingerprint r.state);
      None

(* Baseline: utilities before deployment began (empty state). The
   parallel phase computes per-destination addend streams; the serial
   replay in destination order performs the same float additions as a
   sequential sweep, for any worker count. Processed in destination
   blocks so the transient boxed streams of at most one block are live
   at a time — at paper scale the full per-destination set would dwarf
   the statics store. *)
let baseline r =
  Phase.run Phase.baseline @@ fun () ->
  let { n; statics; g; weight; cfg; _ } = r in
  let tiebreak = cfg.tiebreak in
  let zeros = Bytes.make n '\000' in
  let into = Array.make n 0.0 in
  let block = max 1 (min n 4096) in
  let pairs = Array.make block ([||], [||]) in
  let lo = ref 0 in
  while !lo < n do
    let len = min block (n - !lo) in
    let base = !lo in
    Pool.parallel_for r.sv ~workers:r.workers ~tasks:len ~grain:r.grain
      ~scratch:(fun () -> (Forest.make_scratch n, Route_static.make_builder n))
      (fun (scratch, bd) i ->
        let d = base + i in
        let info = Route_static.stream_get statics bd d in
        Forest.compute info ~tiebreak ~secure:zeros ~use_secp:zeros ~weight scratch;
        pairs.(i) <- Utility.contribution_pairs cfg.model g info scratch ~weight);
    (* Serial replay in ascending destination order — blocks ascend, so
       the addition order equals the unblocked serial sweep's. *)
    for i = 0 to len - 1 do
      Utility.add_pairs pairs.(i) ~into;
      pairs.(i) <- ([||], [||])
    done;
    lo := !lo + len
  done;
  into

(* Fresh start or checkpoint restore. On a resume the progress payload
   carries the statics store's image: the run serves from the store
   rebuilt from it, so it has exactly the residency — and reports
   exactly the hit/miss counters — the interrupted run would have. *)
let start ~checkpoint ~sink ~faults ~digest ~resume_from (cfg : Config.t) statics
    ~weight ~state =
  let g = Route_static.graph statics in
  let n = Graph.n g in
  let workers = max 1 (min cfg.workers n) in
  let statics =
    match resume_from with
    | Some p ->
        Phase.run Phase.statics_prefill (fun () ->
            Route_static.of_snapshot ~workers g p.p_statics)
    | None -> statics
  in
  (* Supervision for the engine's fan-outs: worker failures retry per
     chunk ([Config.retries], capped-exponential backoff with jitter)
     and degrade to serial re-execution; [Config.task_timeout_ms] arms
     the hang watchdog on top. Re-running a chunk recomputes identical
     per-destination values, so faults never change results. *)
  let sv =
    Pool.supervision ~retries:(max 0 cfg.retries) ~jitter_seed:cfg.jitter_seed
      ~timeout_ms:cfg.task_timeout_ms ?faults ()
  in
  (* Statics hit/miss/eviction counters are reported as per-run
     deltas. They are best-effort under concurrent workers (racy
     increments) and depend on the byte budget — diagnostics, not part
     of the deterministic result. *)
  let stats0 = Route_static.stats statics in
  (* The store must serve tie rows sorted under this run's tiebreak
     (dropping stale entries if a previous run used another policy),
     and — when unbounded — be complete before any fan-out: workers
     then only read it. Under a byte budget the prefill is a no-op and
     workers fill their shards lazily through [get]. A snapshot-
     restored store already went through both at the original run's
     start (the digest pins the tiebreak), and re-running the prefill
     would skew the restored hit counters. *)
  if Option.is_none resume_from then
    Phase.run Phase.statics_prefill (fun () ->
        Route_static.ensure_tiebreak statics cfg.tiebreak;
        Route_static.ensure_all ~workers statics);
  (* Packed into a CSR so the per-(destination, candidate) admission
     scan walks a flat row instead of a boxed list. *)
  let stubs =
    let acc = Array.make n [] in
    for i = 0 to n - 1 do
      if Graph.is_isp g i then
        Graph.iter_customers g i (fun c ->
            if Graph.is_stub g c then acc.(i) <- c :: acc.(i))
    done;
    Csr.of_rev_lists acc
  in
  let theta_factor =
    let rng = Nsutil.Prng.create ~seed:cfg.jitter_seed in
    Array.init n (fun _ ->
        if cfg.theta_jitter = 0.0 then 1.0
        else
          Float.max 0.0
            (1.0 +. (cfg.theta_jitter *. ((2.0 *. Nsutil.Prng.float rng 1.0) -. 1.0))))
  in
  let state, stats_base =
    match resume_from with
    | Some p -> (State.restore g p.p_state, p.p_statics_base)
    | None ->
        (state, Route_static.(stats0.hits, stats0.misses, stats0.evictions))
  in
  let r : run_ctx =
    { cfg; g; n; workers; statics; weight; state; faults; checkpoint; sink; digest; sv;
      (* Shard-stripe batches over the statics store (floored at the
         gadget-scale grain of 8, so tiny graphs stay in the calling
         domain). *)
      grain = Route_static.batch_grain statics ~workers ~tasks:n;
      stubs; theta_factor; inc = Incremental.create statics;
      seen = Hashtbl.create 64; seen_order = [];
      baseline = [||]; initial_secure_as = 0; initial_secure_isp = 0;
      round = 0; rounds = []; recomputed = 0; reused = 0; checkpoint_skips = 0;
      stats0; stats_base }
  in
  (match resume_from with
  | None ->
      r.baseline <- baseline r;
      r.initial_secure_as <- State.secure_count state;
      r.initial_secure_isp <- State.secure_isp_count state;
      insert_seen r 0 (State.fingerprint state)
  | Some p ->
      List.iter (fun (rd, s) -> insert_seen r rd (State.fp_restore s)) p.p_seen;
      Incremental.restore r.inc p.p_inc;
      r.baseline <- p.p_baseline;
      r.initial_secure_as <- p.p_initial_secure_as;
      r.initial_secure_isp <- p.p_initial_secure_isp;
      r.round <- p.p_round;
      r.rounds <- p.p_rounds_rev;
      r.recomputed <- p.p_recomputed;
      r.reused <- p.p_reused);
  if Nsobs.Journal.enabled () then
    Nsobs.Journal.event
      (if resume_from = None then "run_start" else "run_resume")
      [
        ("n", Nsobs.Journal.Int n);
        ("workers", Nsobs.Journal.Int workers);
        ("round", Nsobs.Journal.Int r.round);
        ("max_rounds", Nsobs.Journal.Int cfg.max_rounds);
      ];
  r

(* Round start: mark the dirty set, pick the candidates — insecure
   ISPs may turn on; under the incoming model with turn-off allowed,
   secure ISPs may turn off — and capture each candidate's flip as a
   byte delta. *)
let begin_round r =
  let t0 = if Nsobs.Journal.enabled () then Nsobs.Trace.now_us () else 0.0 in
  if Nsobs.Metrics.enabled () then
    Nsobs.Metrics.set (Lazy.force m_current_round) (float_of_int r.round);
  if Nsobs.Journal.enabled () then
    Nsobs.Journal.event "round_start" [ ("round", Nsobs.Journal.Int r.round) ];
  let { n; g; state; cfg; _ } = r in
  let secure = State.secure_bytes state in
  let use_secp = State.use_secp_bytes state ~stub_tiebreak:cfg.stub_tiebreak in
  Phase.run Phase.begin_round (fun () -> Incremental.begin_round r.inc state);
  let turn_off = cfg.allow_turn_off && cfg.model = Config.Incoming in
  let candidates =
    List.init n Fun.id
    |> List.filter (fun i ->
           Graph.is_isp g i && (not (State.pinned state i))
           && (turn_off || not (State.full state i)))
    |> Array.of_list
  in
  let was_on = Array.map (fun nc -> State.full state nc) candidates in
  let deltas =
    Phase.run Phase.probe (fun () ->
        probe_deltas state ~secure ~use_secp ~was_on candidates)
  in
  {
    t0;
    (* Round-start snapshots: workers get private copies to flip. *)
    sec0 = Bytes.copy secure;
    secp0 = Bytes.copy use_secp;
    candidates;
    was_on;
    deltas;
    (* The repair frontier seeds: exactly the nodes each candidate's
       byte delta touches. *)
    seeds = Array.map (fun dl -> Array.map (fun (i, _, _) -> i) dl.after) deltas;
    (* Per-destination probe rows: slot [d] holds the destination's
       admitted (candidate index, changed contribution) pairs, sorted
       by candidate index (the sweep admits in candidate order).
       Sparse on purpose — a dense (destination × candidate) buffer is
       n × ncand floats, ~1.5 GB at paper scale, while admitted probes
       are a thin sliver of that. Workers write disjoint slots, one
       plain assignment per destination. *)
    rows = Array.make n None;
  }

(* Parallel sweep over destinations: recompute dirty forests (updating
   the cache) and evaluate the candidate flips whose routing tree
   actually changes. Dynamically scheduled — workers claim destination
   chunks off an atomic counter, so a destination with many admitted
   probes delays only the worker that drew it. All sweep outputs are
   per-destination slots, so the nondeterministic chunk→worker
   assignment is result-invisible; the serial reduction stays in
   destination order. A slice that keeps failing past the retry budget
   raises [Pool.Supervision_failed]. *)
let sweep r rc =
  (* Locals, not record reads, inside the per-destination body. *)
  let { cfg; g; n; statics; weight; inc; stubs; _ } = r in
  let tiebreak = cfg.tiebreak and model = cfg.model and kernel = cfg.flip_kernel in
  let { sec0; secp0; candidates = candidates_arr; was_on; deltas; seeds = seed_nodes;
        rows; _ } =
    rc
  in
  let ncand = Array.length candidates_arr in
  Phase.run Phase.sweep (fun () ->
      Pool.parallel_for r.sv ~workers:r.workers ~tasks:n ~grain:r.grain
        ~scratch:(fun () ->
          {
            ws_base = Forest.make_scratch n;
            ws_flip = Forest.make_scratch n;
            ws_rep = Forest.make_repairer n;
            ws_sec = Bytes.copy sec0;
            ws_secp = Bytes.copy secp0;
            ws_bd = Route_static.make_builder n;
            ws_rs = Incremental.make_scratch inc;
            ws_ci = Array.make (max 1 ncand) 0;
            ws_c = Array.make (max 1 ncand) 0.0;
            ws_have_base = -1;
          })
        (fun ws d ->
          (* The statics record is fetched lazily: a clean destination
             whose probes all resolve from the graph and the cached
             forest bits never touches the store — which, under a byte
             budget, means never recomputing an evicted row.
             [stream_get] may return a transient record (valid until
             this worker's next fetch, i.e. for the rest of this task),
             so the fetch must happen at most once per task. *)
          let info_slot = ref None in
          let fetch_info () =
            match !info_slot with
            | Some info -> info
            | None ->
                let info = Route_static.stream_get statics ws.ws_bd d in
                info_slot := Some info;
                info
          in
          let e =
            if Incremental.is_dirty inc d then begin
              let info = fetch_info () in
              Forest.compute info ~tiebreak ~secure:ws.ws_sec ~use_secp:ws.ws_secp
                ~weight ws.ws_base;
              ws.ws_have_base <- d;
              let pairs = Utility.contribution_pairs model g info ws.ws_base ~weight in
              Incremental.store inc ~scratch:ws.ws_rs d
                ~sec_path:ws.ws_base.Forest.sec_path ~pairs;
              Incremental.entry inc d
            end
            else Incremental.entry inc d
          in
          let count = ref 0 in
          Array.iteri
            (fun ci nc ->
              let admit =
                match
                  flip_cheap ~g ~secure:sec0 ~sec_bits:e.Incremental.sec_bits
                    ~was_on:was_on.(ci) ~d nc
                with
                | `Admit -> true
                | `Skip -> false
                | `Need_info ->
                    flip_with_info ~cfg ~secure:sec0 ~info:(fetch_info ())
                      ~sec_bits:e.Incremental.sec_bits ~stubs nc
              in
              if admit then begin
                let info = fetch_info () in
                let c =
                  match kernel with
                  | Config.Flip_full ->
                      apply_delta ws.ws_sec ws.ws_secp deltas.(ci).after;
                      Forest.compute info ~tiebreak ~secure:ws.ws_sec
                        ~use_secp:ws.ws_secp ~weight ws.ws_flip;
                      let c = Utility.contribution model g info ws.ws_flip ~weight nc in
                      apply_delta ws.ws_sec ws.ws_secp deltas.(ci).before;
                      c
                  | Config.Flip_delta ->
                      (* One base forest per destination, amortized over
                         its admitted probes; clean destinations compute
                         it lazily on the first hit (the cache stores
                         addend streams, not forests). *)
                      if ws.ws_have_base <> d then begin
                        Forest.compute info ~tiebreak ~secure:ws.ws_sec
                          ~use_secp:ws.ws_secp ~weight ws.ws_base;
                        ws.ws_have_base <- d
                      end;
                      apply_delta ws.ws_sec ws.ws_secp deltas.(ci).after;
                      Forest.repair info ~tiebreak ~secure:ws.ws_sec
                        ~use_secp:ws.ws_secp ~weight ~seeds:seed_nodes.(ci)
                        ws.ws_base ws.ws_rep;
                      let c = Utility.contribution model g info ws.ws_base ~weight nc in
                      Forest.undo ws.ws_base ws.ws_rep;
                      apply_delta ws.ws_sec ws.ws_secp deltas.(ci).before;
                      c
                in
                ws.ws_ci.(!count) <- ci;
                ws.ws_c.(!count) <- c;
                incr count
              end)
            candidates_arr;
          rows.(d) <-
            (if !count = 0 then None
             else Some (Array.sub ws.ws_ci 0 !count, Array.sub ws.ws_c 0 !count))));
  let dc = Incremental.dirty_count inc in
  r.recomputed <- r.recomputed + dc;
  r.reused <- r.reused + (n - dc)

(* Deterministic serial reduction, in destination order: replay the
   cached addend streams and fold the projections. Returns every node's
   (utility, projected utility). *)
let reduce r rc =
  let n = r.n and inc = r.inc and candidates_arr = rc.candidates and rows = rc.rows in
  let ncand = Array.length candidates_arr in
  let utilities = Array.make n 0.0 in
  let projected = Array.make n 0.0 in
  let cand_slot = Array.map (fun nc -> Incremental.isp_slot inc nc) candidates_arr in
  let no_row = ([||], [||]) in
  Phase.run Phase.reduce (fun () ->
      for d = 0 to n - 1 do
        let e = Incremental.entry inc d in
        Incremental.add_pairs e ~into:utilities;
        (* Unchanged (destination, candidate) slots take the cached base
           contribution; the destination's sparse probe row is sorted
           by candidate index, so one merge cursor walks it while ci
           scans all candidates — the same per-destination candidate
           order as the sweep, and the same float additions as a dense
           buffer. *)
        let cis, cs = Option.value ~default:no_row (Array.unsafe_get rows d) in
        let len = Array.length cis in
        let p = ref 0 in
        for ci = 0 to ncand - 1 do
          let nc = Array.unsafe_get candidates_arr ci in
          let c =
            if !p < len && Array.unsafe_get cis !p = ci then begin
              let c = Array.unsafe_get cs !p in
              incr p;
              c
            end
            else Incremental.row_value e (Array.unsafe_get cand_slot ci)
          in
          projected.(nc) <- projected.(nc) +. c
        done
      done;
      (* Non-candidates project their current utility. *)
      let all = Array.copy utilities in
      Array.iter (fun nc -> all.(nc) <- projected.(nc)) candidates_arr;
      (utilities, all))

(* Simultaneous flips per Eq. 3, then the round's record and
   telemetry. Returns the termination if the game ended this round. *)
let decide r rc ~utilities ~projected =
  let { cfg; state; _ } = r in
  let turned_on = ref [] in
  let turned_off = ref [] in
  Phase.run Phase.decide (fun () ->
      Array.iter
        (fun nc ->
          let threshold =
            r.theta_factor.(nc) *. (if State.full state nc then cfg.theta_off else cfg.theta)
          in
          if projected.(nc) > (1.0 +. threshold) *. utilities.(nc) then begin
            if State.full state nc then turned_off := nc :: !turned_off
            else turned_on := nc :: !turned_on
          end)
        rc.candidates;
      List.iter (fun nc -> ignore (State.enable state nc)) !turned_on;
      List.iter (fun nc -> State.disable state nc) !turned_off);
  let record : round_record =
    {
      round = r.round;
      utilities;
      projected;
      turned_on = List.rev !turned_on;
      turned_off = List.rev !turned_off;
      secure_as = State.secure_count state;
      secure_isp = State.secure_isp_count state;
      secure_stub = State.secure_stub_count state;
    }
  in
  r.rounds <- record :: r.rounds;
  let dc = Incremental.dirty_count r.inc in
  let on = List.length record.turned_on and off = List.length record.turned_off in
  if Nsobs.Metrics.enabled () then begin
    Nsobs.Metrics.inc (Lazy.force m_rounds);
    Nsobs.Metrics.add (Lazy.force m_flips_on) on;
    Nsobs.Metrics.add (Lazy.force m_flips_off) off;
    Nsobs.Metrics.observe (Lazy.force m_flips_hist) (float_of_int (on + off));
    Nsobs.Metrics.observe (Lazy.force m_dirty_hist) (float_of_int dc);
    Nsobs.Metrics.add (Lazy.force m_dest_recomputed) dc;
    Nsobs.Metrics.add (Lazy.force m_dest_reused) (r.n - dc)
  end;
  if Nsobs.Journal.enabled () then
    Nsobs.Journal.event "round_end"
      [
        ("round", Nsobs.Journal.Int r.round);
        ("on", Nsobs.Journal.Int on);
        ("off", Nsobs.Journal.Int off);
        ("dirty", Nsobs.Journal.Int dc);
        ("secure_as", Nsobs.Journal.Int record.secure_as);
        ("wall_ms", Nsobs.Journal.Float ((Nsobs.Trace.now_us () -. rc.t0) /. 1000.0));
      ];
  if on + off = 0 then Some Stable
  else Option.map (fun first_round -> Oscillation { first_round }) (remember r)

(* Checkpoint the run's cross-round memory when the file or the sink
   is due. Under [Config.degrade] a failed file write is skipped: the
   tmp+rename protocol left the previous snapshot intact, and losing
   one snapshot interval is strictly better than losing the run. *)
let persist r =
  let due every = r.round mod max 1 every = 0 in
  let checkpoint_due =
    match r.checkpoint with Some { every; _ } -> due every | None -> false
  in
  let sink_due = match r.sink with Some { s_every; _ } -> due s_every | None -> false in
  if checkpoint_due || sink_due then begin
    let p =
      {
        p_round = r.round;
        p_state = State.serialize r.state;
        p_seen = List.rev_map (fun (rd, fp) -> (rd, State.fp_serialize fp)) r.seen_order;
        p_rounds_rev = r.rounds;
        p_recomputed = r.recomputed;
        p_reused = r.reused;
        p_baseline = r.baseline;
        p_initial_secure_as = r.initial_secure_as;
        p_initial_secure_isp = r.initial_secure_isp;
        p_inc = Incremental.snapshot r.inc;
        p_statics = Route_static.snapshot r.statics;
        p_statics_base = r.stats_base;
      }
    in
    let payload = Marshal.to_string p [] in
    (match r.checkpoint with
    | Some { path; _ } when checkpoint_due -> (
        try Checkpoint.write ?faults:r.faults ~path ~digest:r.digest ~round:r.round payload
        with Checkpoint.Error (Checkpoint.Io m) when r.cfg.degrade ->
          r.checkpoint_skips <- r.checkpoint_skips + 1;
          if Nsobs.Metrics.enabled () then Nsobs.Metrics.inc (Lazy.force m_checkpoint_skips);
          if Nsobs.Journal.enabled () then
            Nsobs.Journal.event "checkpoint_skip"
              [ ("round", Nsobs.Journal.Int r.round); ("error", Nsobs.Journal.Str m) ];
          Nsutil.Warnings.emit
            (Printf.sprintf
               "sbgp: engine: checkpoint write failed (%s); continuing on the previous \
                snapshot"
               m))
    | _ -> ());
    match r.sink with
    | Some { s_save; _ } when sink_due -> s_save ~round:r.round ~payload
    | _ -> ()
  end

(* End of run: publish this process's counters and assemble the
   result. *)
let finish r termination : result =
  let stats1 = Route_static.stats r.statics in
  let base_hits, base_misses, base_evictions = r.stats_base in
  if Nsobs.Metrics.enabled () then begin
    (* Store counters are racy under concurrent workers (diagnostics,
       not results); clamp so a lost increment can't make a "delta"
       negative and trip the counter invariant. *)
    let delta a b = max 0 (a - b) in
    Nsobs.Metrics.add (Lazy.force m_statics_hits)
      (delta stats1.Route_static.hits r.stats0.Route_static.hits);
    Nsobs.Metrics.add (Lazy.force m_statics_misses)
      (delta stats1.Route_static.misses r.stats0.Route_static.misses);
    Nsobs.Metrics.add (Lazy.force m_statics_evictions)
      (delta stats1.Route_static.evictions r.stats0.Route_static.evictions);
    Nsobs.Metrics.set (Lazy.force m_statics_bytes)
      (float_of_int stats1.Route_static.cached_bytes)
  end;
  if Nsobs.Journal.enabled () then
    Nsobs.Journal.event "run_end"
      [
        ( "termination",
          Nsobs.Journal.Str
            (match termination with
            | Stable -> "stable"
            | Oscillation { first_round } -> Printf.sprintf "oscillation@%d" first_round
            | Max_rounds -> "max_rounds") );
        ("rounds", Nsobs.Journal.Int r.round);
        (* Statics store deltas for this run (hit/miss/eviction). *)
        ("statics_hits", Nsobs.Journal.Int (stats1.Route_static.hits - base_hits));
        ("statics_misses", Nsobs.Journal.Int (stats1.Route_static.misses - base_misses));
        ( "statics_evictions",
          Nsobs.Journal.Int (stats1.Route_static.evictions - base_evictions) );
        ("checkpoint_skips", Nsobs.Journal.Int r.checkpoint_skips);
      ];
  {
    baseline = r.baseline;
    initial_secure_as = r.initial_secure_as;
    initial_secure_isp = r.initial_secure_isp;
    rounds = List.rev r.rounds;
    final = r.state;
    termination;
    dest_recomputed = r.recomputed;
    dest_reused = r.reused;
    statics_hits = stats1.Route_static.hits - base_hits;
    statics_misses = stats1.Route_static.misses - base_misses;
    statics_evictions = stats1.Route_static.evictions - base_evictions;
    checkpoint_skips = r.checkpoint_skips;
    statics_store = r.statics;
  }

let run_internal ~checkpoint ~sink ~faults ~digest ~resume_from cfg statics ~weight
    ~state =
  Phase.run Phase.engine_run @@ fun () ->
  let r = start ~checkpoint ~sink ~faults ~digest ~resume_from cfg statics ~weight ~state in
  let rec loop () =
    if r.round >= r.cfg.max_rounds then Max_rounds
    else begin
      r.round <- r.round + 1;
      let args =
        if Nsobs.Trace.enabled () then Some [ ("round", string_of_int r.round) ] else None
      in
      (* The round span covers the whole round — through the
         checkpoint, if one is due — so traced wall time decomposes
         into rounds. *)
      let ended =
        Phase.run ?args Phase.engine_round (fun () ->
            let rc = begin_round r in
            sweep r rc;
            let utilities, projected = reduce r rc in
            let ended = decide r rc ~utilities ~projected in
            (* Snapshot only when another round is coming: a checkpoint
               always represents a run with work left to do, so a resume
               re-enters the loop exactly where the interrupted run
               would have. *)
            if Option.is_none ended && r.round < r.cfg.max_rounds then persist r;
            ended)
      in
      match ended with Some termination -> termination | None -> loop ()
    end
  in
  finish r (loop ())

let resolve_faults = function
  | Some _ as f -> f
  | None -> Nsutil.Faults.of_env ()

(* The input digest walks the whole topology; only pay for it when
   snapshot files will actually be written. Sink payloads are framed
   (and digest-bound) by the sink's owner. *)
let file_digest checkpoint cfg statics ~weight ~state =
  match checkpoint with
  | None -> String.make 32 '\000'
  | Some _ -> input_digest cfg statics ~weight ~state

let run ?checkpoint ?sink ?faults (cfg : Config.t) statics ~weight ~state =
  run_internal ~checkpoint ~sink ~faults:(resolve_faults faults)
    ~digest:(file_digest checkpoint cfg statics ~weight ~state)
    ~resume_from:None cfg statics ~weight ~state

let resume ~from ?checkpoint ?sink ?faults (cfg : Config.t) statics ~weight ~state =
  let faults = resolve_faults faults in
  let digest = input_digest cfg statics ~weight ~state in
  let frame = Checkpoint.load_exn ~path:from ~digest in
  (match frame.Checkpoint.kind with
  | Checkpoint.Engine -> ()
  | Checkpoint.Churn ->
      (* A churn-run snapshot (kind code 1) belongs to the evolution
         runner, not the engine — reject it with the typed error the
         CLI turns into a hint. *)
      raise (Checkpoint.Error (Checkpoint.Unsupported_kind 1)));
  let p = (Marshal.from_string frame.Checkpoint.payload 0 : progress) in
  if p.p_round <> frame.Checkpoint.round then
    raise (Checkpoint.Error Checkpoint.Corrupt);
  run_internal ~checkpoint ~sink ~faults ~digest ~resume_from:(Some p) cfg statics
    ~weight ~state

let resume_of_payload ~payload ?checkpoint ?sink ?faults (cfg : Config.t) statics
    ~weight ~state =
  let p = (Marshal.from_string payload 0 : progress) in
  run_internal ~checkpoint ~sink ~faults:(resolve_faults faults)
    ~digest:(file_digest checkpoint cfg statics ~weight ~state)
    ~resume_from:(Some p) cfg statics ~weight ~state

let secure_fraction result kind =
  let state = result.final in
  let g = State.graph state in
  let n = Graph.n g in
  match kind with
  | `As -> float_of_int (State.secure_count state) /. float_of_int (max 1 n)
  | `Isp ->
      let isps = Graph.count_class g Asgraph.As_class.Isp in
      float_of_int (State.secure_isp_count state) /. float_of_int (max 1 isps)

let rounds_run (result : result) = List.length result.rounds

let cache_hit_rate result =
  let total = result.dest_recomputed + result.dest_reused in
  if total = 0 then 0.0 else float_of_int result.dest_reused /. float_of_int total
