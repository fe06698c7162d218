(* Observability: [pool.slice] spans show per-worker busy periods (gaps =
   idle/parked), park spans show bank waits, and the counters expose
   how calls are served. Every hook hides behind a static
   [Trace.enabled]/[Metrics.enabled] check, so unobserved runs pay a
   load+branch per call, not per task. *)
let counter help name = lazy (Nsobs.Metrics.counter ~help name)

let m_spawns =
  counter "helper domains spawned (bank growth + fallback)" "pool_domain_spawn_total"

let m_parks = counter "bank worker park events" "pool_park_total"
let m_leases = counter "parallel calls served by the parked worker bank" "pool_bank_lease_total"

let m_fallbacks =
  counter "parallel calls that fell back to fresh Domain.spawn" "pool_spawn_fallback_total"

let m_retries = counter "supervised chunk re-executions" "pool_retry_total"
let m_slice_failures = counter "supervised chunk attempts that raised" "pool_slice_fail_total"

let m_bank_size =
  lazy
    (Nsobs.Metrics.gauge ~help:"helper domains parked in the bank" "pool_bank_workers")

let m_watchdog_cancels =
  counter "stalled workers cancelled by the watchdog" "pool_watchdog_cancel_total"

let m_backoff_ms =
  lazy
    (Nsobs.Metrics.histogram ~help:"supervised retry backoff sleeps (ms)"
       ~buckets:[| 1.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000. |]
       "pool_backoff_delay_ms")

let workers_of_domain_count c = max 1 (c - 1)

let recommended_workers () = workers_of_domain_count (Domain.recommended_domain_count ())

let default_workers () =
  Nsutil.Env.int_var ~name:"SBGP_WORKERS" ~min:1 ~default:(recommended_workers ()) ()

(* ------------------------------------------------------------------ *)
(* Persistent worker bank.

   [Domain.spawn] costs milliseconds on a loaded host — comparable to
   an entire per-round sweep at Internet scale — so spawning fresh
   domains per [parallel_for] call would be overhead-dominated for the
   engine's per-round kernels. Instead, helper domains are spawned
   once on first parallel use and then parked on a condition variable;
   a call leases the whole bank, hands each helper its worker closure,
   runs worker 0 itself and waits for the helpers to park again.

   The bank is a pure execution strategy: tasks publish per-index
   results, so they are bit-identical whether workers run on the
   bank, on freshly spawned domains, or sequentially. Calls that
   cannot take the lease — a nested call from inside a worker, a
   concurrent caller from another domain, or a worker count beyond the
   bank cap — fall back to spawning, preserving liveness. *)

type bank_worker = {
  wm : Mutex.t;
  wcv : Condition.t;
  mutable wjob : (unit -> unit) option; (* parked <-> pending *)
  mutable wbusy : bool; (* set by the leaser, cleared by the worker *)
}

let max_bank_workers = 15
let bank : bank_worker array ref = ref [||]
let bank_leased = Atomic.make false
let inside_bank_worker = Domain.DLS.new_key (fun () -> false)

let bank_worker_loop w =
  Mutex.lock w.wm;
  while true do
    match w.wjob with
    | None ->
        if Nsobs.Metrics.enabled () then Nsobs.Metrics.inc (Lazy.force m_parks);
        (* The span covers the parked wait, so the trace shows each
           worker's idle periods between leases. *)
        Nsobs.Phase.run Nsobs.Phase.pool_park (fun () -> Condition.wait w.wcv w.wm)
    | Some job ->
        w.wjob <- None;
        Mutex.unlock w.wm;
        job ();
        (* [job] captures its own exceptions; it never raises. *)
        Mutex.lock w.wm;
        w.wbusy <- false;
        Condition.broadcast w.wcv
  done

(* Called only under the bank lease. *)
let ensure_bank k =
  let cur = !bank in
  if Array.length cur >= k then cur
  else begin
    let grown =
      Array.init k (fun i ->
          if i < Array.length cur then cur.(i)
          else begin
            let w =
              { wm = Mutex.create (); wcv = Condition.create (); wjob = None; wbusy = false }
            in
            if Nsobs.Metrics.enabled () then Nsobs.Metrics.inc (Lazy.force m_spawns);
            ignore
              (Domain.spawn (fun () ->
                   Domain.DLS.set inside_bank_worker true;
                   bank_worker_loop w));
            w
          end)
    in
    bank := grown;
    if Nsobs.Metrics.enabled () then
      Nsobs.Metrics.set (Lazy.force m_bank_size) (float_of_int (Array.length grown));
    grown
  end

(* Hand [run 0 .. run (k-1)] to parked workers. Returns false without
   doing anything when the bank is unavailable; on true, the caller
   owns the lease and must [bank_wait] to release it. *)
let bank_try_submit k run =
  if k > max_bank_workers || Domain.DLS.get inside_bank_worker then false
  else if not (Atomic.compare_and_set bank_leased false true) then false
  else begin
    let ws = ensure_bank k in
    for i = 0 to k - 1 do
      let w = ws.(i) in
      Mutex.lock w.wm;
      w.wbusy <- true;
      w.wjob <- Some (fun () -> run i);
      Condition.broadcast w.wcv;
      Mutex.unlock w.wm
    done;
    true
  end

(* Wait for the k submitted workers to finish and release the lease. *)
let bank_wait k =
  let ws = !bank in
  for i = 0 to k - 1 do
    let w = ws.(i) in
    Mutex.lock w.wm;
    while w.wbusy do
      Condition.wait w.wcv w.wm
    done;
    Mutex.unlock w.wm
  done;
  Atomic.set bank_leased false

(* ------------------------------------------------------------------ *)
(* Supervision: worker-domain exceptions are contained and attributed
   to the task index that raised; the failed chunk is re-executed
   (see [parallel_for]). *)

type failure = { index : int; attempts : int; error : string }

exception Supervision_failed of failure list

let () =
  Printexc.register_printer (function
    | Supervision_failed fs ->
        Some
          (Printf.sprintf "Pool.Supervision_failed [%s]"
             (String.concat "; "
                (List.map
                   (fun f ->
                     Printf.sprintf "task %d after %d attempts: %s" f.index f.attempts
                       f.error)
                   fs)))
    | _ -> None)

type supervision = {
  retries : int;
  backoff : float;
  backoff_cap : float;
  jitter_seed : int;
  timeout_ms : int;
  faults : Nsutil.Faults.t option;
  on_retry : (attempt:int -> index:int -> error:string -> unit) option;
}

let supervision ?(retries = 2) ?(backoff = 0.005) ?(backoff_cap = 0.25)
    ?(jitter_seed = 0) ?(timeout_ms = 0) ?faults ?on_retry () =
  {
    retries = max 0 retries;
    backoff = Float.max 0.0 backoff;
    backoff_cap = Float.max 0.0 backoff_cap;
    jitter_seed;
    timeout_ms = max 0 timeout_ms;
    faults;
    on_retry;
  }

let no_supervision = supervision ~retries:0 ~backoff:0.0 ()

(* Capped exponential backoff with deterministic jitter: the k-th
   re-attempt of the chunk owning task [index] sleeps
   [min cap (backoff * 2^(k-2)) * (0.5 + 0.5 * u)], where [u] is a
   pure hash of (jitter_seed, attempt, index). Retrying chunks
   therefore never synchronize their sleeps (each index draws its own
   jitter) while the schedule stays reproducible run to run. *)
let backoff_delay sv ~attempt ~index =
  if sv.backoff <= 0.0 then 0.0
  else begin
    let exp =
      Float.min sv.backoff_cap
        (sv.backoff *. Float.of_int (1 lsl min 20 (max 0 (attempt - 2))))
    in
    let u =
      float_of_int (Nsutil.Prng.mix2 (Nsutil.Prng.mix2 sv.jitter_seed attempt) index)
      /. 4.611686018427387904e18 (* 2^62 *)
    in
    exp *. (0.5 +. (0.5 *. u))
  end

let sleep_before_retry sv ~attempt ~index =
  let d = backoff_delay sv ~attempt ~index in
  if d > 0.0 then begin
    if Nsobs.Metrics.enabled () then
      Nsobs.Metrics.observe (Lazy.force m_backoff_ms) (d *. 1000.0);
    if Nsobs.Journal.enabled () then
      Nsobs.Journal.event "pool_backoff"
        [
          ("index", Nsobs.Journal.Int index);
          ("attempt", Nsobs.Journal.Int attempt);
          ("delay_ms", Nsobs.Journal.Float (d *. 1000.0));
        ];
    Thread.delay d
  end

(* ------------------------------------------------------------------ *)
(* Watchdog: one heartbeat word per worker pass, polled by a monitor
   thread. A domain cannot be killed, so cancellation is cooperative:
   the guarded loops increment their tracker's heartbeat before every
   task and abandon the chunk (raising {!Watchdog_timeout}) once the
   monitor flags it cancelled, feeding the ordinary retry machinery.
   The one in-tree hang — the [pool.hang] fault site — polls its
   tracker's cancel flag while "hung", so even a mid-task stall
   unwinds as soon as the watchdog fires. Real (non-injected) mid-task
   hangs that never reach a task boundary cannot be reclaimed; the
   timeout must exceed the worst single-task latency. *)

exception Watchdog_timeout

let () =
  Printexc.register_printer (function
    | Watchdog_timeout ->
        Some "Pool.Watchdog_timeout (watchdog cancelled a stalled chunk)"
    | _ -> None)

type tracker = {
  t_hb : int Atomic.t;  (* incremented before every task *)
  t_cancel : bool Atomic.t;  (* set by the monitor, read by the worker *)
  t_done : bool Atomic.t;  (* pass finished; monitor stops watching *)
  mutable t_last : int;  (* monitor-private: last heartbeat seen *)
  mutable t_since : float;  (* monitor-private: when it was seen *)
}

let tracker_cancelled = function
  | Some t -> Atomic.get t.t_cancel
  | None -> false

let tracker_finish = function Some t -> Atomic.set t.t_done true | None -> ()

(* Runs [f mk] under a monitor thread when the policy arms a timeout;
   [mk ()] registers a fresh tracker for one worker pass. With no
   timeout, [mk] yields no tracker and the guarded loops skip all
   heartbeat work. The monitor scans every few milliseconds (cheap: a
   handful of atomic loads), so joining it at the end adds bounded
   latency to the call. *)
let with_watchdog sv f =
  if sv.timeout_ms <= 0 then f (fun () -> None)
  else begin
    let timeout = float_of_int sv.timeout_ms /. 1000.0 in
    let reg_m = Mutex.create () in
    let reg = ref [] in
    let stop = Atomic.make false in
    let mk () =
      let t =
        {
          t_hb = Atomic.make 0;
          t_cancel = Atomic.make false;
          t_done = Atomic.make false;
          t_last = 0;
          t_since = Unix.gettimeofday ();
        }
      in
      Mutex.lock reg_m;
      reg := t :: !reg;
      Mutex.unlock reg_m;
      Some t
    in
    let period = Float.max 0.001 (Float.min 0.005 (timeout /. 4.0)) in
    let monitor =
      Thread.create
        (fun () ->
          while not (Atomic.get stop) do
            Thread.delay period;
            let now = Unix.gettimeofday () in
            Mutex.lock reg_m;
            List.iter
              (fun t ->
                if not (Atomic.get t.t_done || Atomic.get t.t_cancel) then begin
                  let hb = Atomic.get t.t_hb in
                  if hb <> t.t_last then begin
                    t.t_last <- hb;
                    t.t_since <- now
                  end
                  else if now -. t.t_since > timeout then begin
                    Atomic.set t.t_cancel true;
                    if Nsobs.Metrics.enabled () then
                      Nsobs.Metrics.inc (Lazy.force m_watchdog_cancels);
                    Nsobs.Log.warn "pool: watchdog cancelled a stalled chunk (> %d ms)"
                      sv.timeout_ms;
                    if Nsobs.Journal.enabled () then
                      Nsobs.Journal.event "watchdog_fire"
                        [ ("timeout_ms", Nsobs.Journal.Int sv.timeout_ms) ]
                  end
                end)
              !reg;
            Mutex.unlock reg_m
          done)
        ()
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join monitor)
      (fun () -> f mk)
  end

(* The [pool.hang] fault: stall (polling our own cancel flag) until
   the watchdog fires, then unwind like any injected fault. With no
   watchdog armed the hang degrades to an immediate raise — it must
   never deadlock a run that cannot cancel it. *)
let simulate_hang tracker ~shot =
  (match tracker with
  | Some t ->
      while not (Atomic.get t.t_cancel) do
        Thread.delay 0.001
      done
  | None -> ());
  raise (Nsutil.Faults.Injected { site = "pool.hang"; shot })

let check_task_boundary ~sv ~tracker =
  (match tracker with
  | Some t ->
      if Atomic.get t.t_cancel then raise Watchdog_timeout;
      Atomic.incr t.t_hb
  | None -> ());
  match sv.faults with
  | Some f -> (
      Nsutil.Faults.trip f "pool.task";
      match Nsutil.Faults.fires f "pool.hang" with
      | Some shot -> simulate_hang tracker ~shot
      | None -> ())
  | None -> ()


(* ------------------------------------------------------------------ *)
(* The parallel-for: workers repeatedly claim the next [grain]-sized
   contiguous chunk off a shared atomic counter, so a heavy-tailed
   task — one destination with many admitted candidate probes — delays
   only the worker that drew it. Which worker runs which chunk is
   nondeterministic, so tasks publish their results into per-index
   slots; re-running an index overwrites its slot with the same value.

   Supervision is chunk-grained: an exception is attributed to the
   failing task index, the chunk re-executes (spawned retries, then
   one final serial attempt) on fresh scratch, and surviving failures
   aggregate into [Supervision_failed]. A watchdog-cancelled worker
   stops claiming chunks; the chunk it was executing joins the failure
   list like any raising chunk, and the calling domain drains any
   chunks left unclaimed after the join — no task index is ever
   silently skipped. *)

(* One guarded chunk execution on a worker's scratch. The scratch is
   forced inside the guard, so an exception from [scratch ()] is
   attributed to the chunk like any task failure instead of killing
   a bank worker. *)
let run_chunk ~sv ~tracker body scratch lo hi =
  let i = ref lo in
  match
    let s = Lazy.force scratch in
    while !i < hi do
      check_task_boundary ~sv ~tracker;
      body s !i;
      incr i
    done
  with
  | () -> None
  | exception e ->
      if Nsobs.Metrics.enabled () then Nsobs.Metrics.inc (Lazy.force m_slice_failures);
      Some (lo, hi, !i, Printexc.to_string e)

let announce_retry sv ~attempt (_, _, index, error) =
  if Nsobs.Metrics.enabled () then Nsobs.Metrics.inc (Lazy.force m_retries);
  Nsobs.Log.warn "pool: retrying chunk (task %d, attempt %d): %s" index attempt error;
  if Nsobs.Journal.enabled () then
    Nsobs.Journal.event "pool_retry"
      [
        ("index", Nsobs.Journal.Int index);
        ("attempt", Nsobs.Journal.Int attempt);
        ("error", Nsobs.Journal.Str error);
      ];
  match sv.on_retry with Some f -> f ~attempt ~index ~error | None -> ()

let parallel_for sv ~workers ~tasks ~grain ~scratch body =
  if tasks > 0 then
    with_watchdog sv @@ fun mk_tracker ->
    let grain = max 1 grain in
    let nchunks = (tasks + grain - 1) / grain in
    let workers = max 1 (min workers nchunks) in
    let next_chunk = Atomic.make 0 in
    let failures = Array.make workers [] in
    let worker w =
      Nsobs.Phase.run Nsobs.Phase.pool_slice (fun () ->
          let tracker = mk_tracker () in
          let s = lazy (scratch ()) in
          let rec claim () =
            if not (tracker_cancelled tracker) then begin
              let c = Atomic.fetch_and_add next_chunk 1 in
              if c < nchunks then begin
                let lo = c * grain in
                (match run_chunk ~sv ~tracker body s lo (min tasks (lo + grain)) with
                | None -> ()
                | Some f -> failures.(w) <- f :: failures.(w));
                claim ()
              end
            end
          in
          claim ();
          tracker_finish tracker)
    in
    (* Helpers 1 .. k on the bank (or freshly spawned when the lease
       is taken); worker 0 is the calling domain. *)
    let k = workers - 1 in
    let on_bank = k > 0 && bank_try_submit k (fun i -> worker (i + 1)) in
    if k > 0 && Nsobs.Metrics.enabled () then
      if on_bank then Nsobs.Metrics.inc (Lazy.force m_leases)
      else begin
        Nsobs.Metrics.inc (Lazy.force m_fallbacks);
        Nsobs.Metrics.add (Lazy.force m_spawns) k
      end;
    let spawned =
      if on_bank || k = 0 then [||]
      else Array.init k (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    if on_bank then bank_wait k else Array.iter Domain.join spawned;
    (* Cancelled workers may have exited with the counter short of the
       end: drain the leftovers in the calling domain, one fresh
       tracker per pass. *)
    while Atomic.get next_chunk < nchunks do
      worker 0
    done;
    let attempt no (lo, hi, index, _) =
      sleep_before_retry sv ~attempt:no ~index;
      let tracker = mk_tracker () in
      let r = run_chunk ~sv ~tracker body (lazy (scratch ())) lo hi in
      tracker_finish tracker;
      r
    in
    (* Re-attempt failed chunks; all but the last allowed attempt run
       concurrently on spawned domains, each sleeping its own jittered
       backoff so retries never synchronize. *)
    let rec retry no failed =
      if failed = [] then []
      else if no > sv.retries + 1 then
        List.map
          (fun (_, _, index, error) -> { index; attempts = sv.retries + 1; error })
          failed
      else begin
        List.iter (announce_retry sv ~attempt:no) failed;
        let results =
          if no <= sv.retries then begin
            if Nsobs.Metrics.enabled () then
              Nsobs.Metrics.add (Lazy.force m_spawns) (List.length failed);
            List.map (fun f -> Domain.spawn (fun () -> attempt no f)) failed
            |> List.map Domain.join
          end
          else List.map (attempt no) failed
        in
        retry (no + 1) (List.filter_map Fun.id results)
      end
    in
    let dead = retry 2 (List.concat_map List.rev (Array.to_list failures)) in
    if dead <> [] then
      raise (Supervision_failed (List.sort (fun a b -> compare a.index b.index) dead))
