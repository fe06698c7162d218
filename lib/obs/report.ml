(* The run health report: fold the journal (the run's history,
   including previous interrupted attempts) and the live metrics
   registry into one screen a human can read at end of run — rate
   trend, phase latency quantiles, resilience-event totals.

   The journal is the source of truth when present (it survives
   kills and spans resumes); the registry fills in whatever the
   current process measured (histogram quantiles, statics counters).
   A truncated final line — the signature of a killed run — is
   reported, not treated as corruption. *)

type journal_stats = {
  events : int;
  bad_lines : int;  (** unparseable non-final lines *)
  truncated_tail : bool;  (** final line unparseable (killed mid-append) *)
  runs : int;  (** [run_start] events seen *)
  resumes : int;
  rounds : int;  (** [round_end] events seen *)
  ev_counts : (string * int) list;  (** per-type totals, sorted *)
  round_ts : float array;  (** timestamps of [round_end], in order *)
  round_wall_ms : float array;  (** wall_ms of [round_end], in order *)
}

let scan path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> ());
          let lines = List.rev !lines in
          let n_lines = List.length lines in
          let events = ref 0
          and bad = ref 0
          and truncated = ref false
          and runs = ref 0
          and resumes = ref 0
          and counts = Hashtbl.create 16
          and round_ts = ref []
          and round_wall = ref [] in
          List.iteri
            (fun i line ->
              if String.trim line <> "" then
                match Jsonv.parse line with
                | Error _ ->
                    if i = n_lines - 1 then truncated := true else incr bad
                | Ok v ->
                    incr events;
                    let ev =
                      Option.value ~default:"?"
                        (Option.bind (Jsonv.member "ev" v) Jsonv.to_string)
                    in
                    Hashtbl.replace counts ev
                      (1 + Option.value ~default:0 (Hashtbl.find_opt counts ev));
                    (match ev with
                    | "run_start" -> incr runs
                    | "run_resume" -> incr resumes
                    | "round_end" ->
                        let f key =
                          Option.bind (Jsonv.member key v) Jsonv.to_float
                        in
                        Option.iter
                          (fun ts -> round_ts := ts :: !round_ts)
                          (f "ts");
                        Option.iter
                          (fun w -> round_wall := w :: !round_wall)
                          (f "wall_ms")
                    | _ -> ()))
            lines;
          Ok
            {
              events = !events;
              bad_lines = !bad;
              truncated_tail = !truncated;
              runs = !runs;
              resumes = !resumes;
              rounds =
                Option.value ~default:0 (Hashtbl.find_opt counts "round_end");
              ev_counts =
                List.sort compare
                  (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []);
              round_ts = Array.of_list (List.rev !round_ts);
              round_wall_ms = Array.of_list (List.rev !round_wall);
            })

let ev_count st name =
  Option.value ~default:0 (List.assoc_opt name st.ev_counts)

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let fmt v =
  if Float.is_integer v && Float.abs v < 1e6 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 1.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v

(* Exact quantile of a sample array (journal-side, where we have the
   raw values rather than buckets). *)
let sample_quantile xs q =
  let n = Array.length xs in
  if n = 0 then None
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let idx = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    Some sorted.(max 0 (min (n - 1) idx))
  end

(* p50/p99 of a named registry histogram, falling back to a raw
   sample array (from the journal) when the registry is empty. *)
let p50_p99 ?(samples = [||]) name =
  let from_hist =
    match Metrics.find_histogram name with
    | Some h when Metrics.histogram_count h > 0 ->
        Some (Metrics.quantile h 0.5, Metrics.quantile h 0.99)
    | _ -> None
  in
  match from_hist with
  | Some (Some p50, Some p99) -> Some (p50, p99)
  | _ -> (
      match (sample_quantile samples 0.5, sample_quantile samples 0.99) with
      | Some p50, Some p99 -> Some (p50, p99)
      | _ -> None)

let rate_line st =
  let n = Array.length st.round_ts in
  if n < 2 then None
  else begin
    let span = st.round_ts.(n - 1) -. st.round_ts.(0) in
    if span <= 0.0 then None
    else begin
      let overall = float_of_int (n - 1) /. span in
      let half i j =
        let k = j - i in
        let s = st.round_ts.(j) -. st.round_ts.(i) in
        if k >= 1 && s > 0.0 then Some (float_of_int k /. s) else None
      in
      let mid = n / 2 in
      let trend =
        match (half 0 mid, half mid (n - 1)) with
        | Some a, Some b -> Printf.sprintf ", trend %s -> %s" (fmt a) (fmt b)
        | _ -> ""
      in
      Some (Printf.sprintf "%s rounds/s overall%s" (fmt overall) trend)
    end
  end

(* Resilience totals: the journal spans the whole run history, the
   registry only this process — take the larger of the two views. *)
let resilience_total st_opt metric journal_ev =
  let reg = int_of_float (Option.value ~default:0.0 (Metrics.value metric)) in
  let jl =
    match st_opt with Some st -> ev_count st journal_ev | None -> 0
  in
  max reg jl

let render ?journal_path () =
  let buf = Buffer.create 1024 in
  let line f = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) f in
  line "== run health report ==";
  let st =
    match journal_path with
    | None -> None
    | Some p -> (
        match scan p with
        | Error msg ->
            line "journal: %s (unreadable: %s)" p msg;
            None
        | Ok st ->
            line "journal: %s -- %d events, %d run(s), %d resume(s)%s%s" p
              st.events st.runs st.resumes
              (if st.truncated_tail then ", truncated tail (killed run)" else "")
              (if st.bad_lines > 0 then
                 Printf.sprintf ", %d bad line(s)" st.bad_lines
               else "");
            Some st)
  in
  let rounds =
    let reg =
      int_of_float (Option.value ~default:0.0 (Metrics.value "engine_rounds_total"))
    in
    match st with Some st when st.rounds > 0 -> st.rounds | _ -> reg
  in
  (match st with
  | Some st -> (
      match rate_line st with
      | Some r -> line "rounds: %d (%s)" rounds r
      | None -> line "rounds: %d" rounds)
  | None -> line "rounds: %d" rounds);
  (* The round's journal wall times stand in when this process
     observed no round itself. *)
  let cells =
    List.filter_map
      (fun (p : Phase.t) ->
        match p.hist with
        | None -> None
        | Some h -> (
            let samples =
              if p == Phase.engine_round then Option.map (fun s -> s.round_wall_ms) st
              else None
            in
            match p50_p99 ?samples h.metric with
            | Some (p50, p99) ->
                Some (Printf.sprintf "%s %s/%s" h.label (fmt p50) (fmt p99))
            | None -> None))
      Phase.all
  in
  if cells <> [] then line "phase p50/p99 ms: %s" (String.concat " | " cells);
  line "resilience: checkpoint skips %d | watchdog fires %d | retries %d"
    (resilience_total st "engine_checkpoint_skips_total" "checkpoint_skip")
    (resilience_total st "pool_watchdog_cancel_total" "watchdog_fire")
    (resilience_total st "pool_retry_total" "pool_retry");
  let stat name =
    int_of_float (Option.value ~default:0.0 (Metrics.value name))
  in
  let hits = stat "statics_hit_total"
  and misses = stat "statics_miss_total"
  and evictions = stat "statics_eviction_total" in
  if hits + misses + evictions > 0 then
    line "statics: hits %d | misses %d | evictions %d" hits misses evictions;
  Buffer.contents buf
