(* The scrape endpoint: a minimal HTTP/1.1 server on a dedicated
   systhread, loopback only, answering GET /metrics (Prometheus
   exposition straight from the registry) and GET /healthz (run
   progress as JSON). Plain Unix + Thread — no web framework.

   Why a systhread works here: OCaml systhreads share one runtime
   lock per domain, but [Unix.accept]/[read]/[write] release it for
   the syscall's duration, and the tick thread preempts a computing
   engine every ~50 ms. So a scrape issued mid-round is answered
   within a tick or two while the engine keeps its domains; the
   endpoint adds an idle thread, not a competing core. Requests are
   served serially — Prometheus scrapes one target at a time, and the
   responses are a few KiB. *)

type t = {
  fd : Unix.file_descr;
  port : int;
  started_at : float;
  mutable running : bool;
  mutable thread : Thread.t option;
}

let port t = t.port

let fmt_float v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* Registry probe for healthz: absent metrics read as 0 so the
   document shape is stable whether or not the engine registered its
   instruments yet. *)
let v name = Option.value ~default:0.0 (Metrics.value name)

let healthz_body t =
  let uptime = Unix.gettimeofday () -. t.started_at in
  let skips = v "engine_checkpoint_skips_total"
  and cancels = v "pool_watchdog_cancel_total"
  and retries = v "pool_retry_total" in
  let degraded = skips +. cancels +. retries > 0.0 in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "{\"status\":\"ok\",\"uptime_s\":%s" (fmt_float uptime);
  Printf.bprintf buf ",\"round\":%s,\"rounds_total\":%s"
    (fmt_float (v "engine_current_round"))
    (fmt_float (v "engine_rounds_total"));
  Printf.bprintf buf ",\"degraded\":%b" degraded;
  Printf.bprintf buf
    ",\"resilience\":{\"checkpoint_skips\":%s,\"watchdog_cancels\":%s,\"retries\":%s}"
    (fmt_float skips) (fmt_float cancels) (fmt_float retries);
  Printf.bprintf buf ",\"metrics_enabled\":%b" (Metrics.enabled ());
  (match Journal.path () with
  | Some p ->
      Printf.bprintf buf ",\"journal\":\"%s\",\"journal_events\":%d"
        (Jsonv.escape p)
        (Journal.events_recorded ())
  | None -> Buffer.add_string buf ",\"journal\":null");
  Buffer.add_char buf '}';
  Buffer.contents buf

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let route t ~meth ~target =
  let path =
    match String.index_opt target '?' with
    | Some i -> String.sub target 0 i
    | None -> target
  in
  if meth <> "GET" then
    response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
      "only GET is supported\n"
  else
    match path with
    | "/metrics" ->
        (* Fresh RSS sample per scrape, so dashboards see live memory. *)
        if Metrics.enabled () then Rss.publish ();
        response ~status:"200 OK"
          ~content_type:"text/plain; version=0.0.4; charset=utf-8"
          (Metrics.to_prometheus ())
    | "/healthz" ->
        response ~status:"200 OK" ~content_type:"application/json"
          (healthz_body t)
    | _ ->
        response ~status:"404 Not Found" ~content_type:"text/plain" "not found\n"

(* Read until the blank line ending the request head (we ignore any
   body — both routes are GETs), bounded so a misbehaving client
   cannot grow the buffer. *)
let read_head fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let rec go () =
    if Buffer.length buf > 8192 then Buffer.contents buf
    else
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then Buffer.contents buf
      else begin
        Buffer.add_subbytes buf chunk 0 n;
        let s = Buffer.contents buf in
        let rec find i =
          if i + 3 >= String.length s then None
          else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
          then Some ()
          else find (i + 1)
        in
        match find 0 with Some () -> s | None -> go ()
      end
  in
  go ()

let write_all fd s =
  let data = Bytes.of_string s in
  let len = Bytes.length data in
  let rec go off =
    if off < len then
      let n = Unix.write fd data off (len - off) in
      go (off + n)
  in
  go 0

let handle t conn =
  Fun.protect
    ~finally:(fun () -> try Unix.close conn with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float conn Unix.SO_RCVTIMEO 2.0;
      Unix.setsockopt_float conn Unix.SO_SNDTIMEO 2.0;
      let head = read_head conn in
      let first_line =
        match String.index_opt head '\r' with
        | Some i -> String.sub head 0 i
        | None -> head
      in
      match String.split_on_char ' ' first_line with
      | meth :: target :: _ -> write_all conn (route t ~meth ~target)
      | _ ->
          write_all conn
            (response ~status:"400 Bad Request" ~content_type:"text/plain"
               "bad request\n"))

let accept_loop t () =
  while t.running do
    match Unix.accept t.fd with
    | conn, _ -> (
        try handle t conn with Unix.Unix_error _ | Sys_error _ -> ())
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* Listening socket gone — normal shutdown path ([stop] closes
           it under us) or something fatal; either way, wind down. *)
        t.running <- false
  done

let start ?(addr = "127.0.0.1") ~port:req_port () =
  match
    let inet = Unix.inet_addr_of_string addr in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (inet, req_port));
       Unix.listen fd 16
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    let port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> req_port
    in
    let t =
      { fd; port; started_at = Unix.gettimeofday (); running = true; thread = None }
    in
    t.thread <- Some (Thread.create (accept_loop t) ());
    t
  with
  | t -> Ok t
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Failure msg -> Error msg

let stop t =
  if t.running then begin
    t.running <- false;
    (* A thread parked in [accept] is NOT woken by [close] on Linux;
       shut the listening socket down instead (the accept returns
       EINVAL), with a throwaway self-connect as a portable nudge for
       kernels where shutdown on a listening socket is refused. Only
       after the server thread is joined is the fd actually closed —
       closing first would race a reused descriptor number into the
       still-running accept. *)
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try
       let sa =
         match Unix.getsockname t.fd with
         | Unix.ADDR_INET (a, p) when a = Unix.inet_addr_any ->
             Unix.ADDR_INET (Unix.inet_addr_loopback, p)
         | sa -> sa
       in
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () -> Unix.connect fd sa)
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.thread;
    (try Unix.close t.fd with Unix.Unix_error _ -> ())
  end
