(* Repository hygiene: build artifacts must not be tracked.

   [dune runtest] executes from the build sandbox, so the test walks
   up to the checkout root (the directory holding [.git]) and asks git
   which files it tracks under [_build/]. Anything tracked there is a
   bug: artifacts churn on every build and bloat history. The test
   skips silently when not run from a git checkout (release tarball)
   or when git is unavailable. *)

let rec find_root dir =
  if Sys.file_exists (Filename.concat dir ".git") then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_root parent

let git_lines root args =
  let cmd = Printf.sprintf "git -C %s %s 2>/dev/null" (Filename.quote root) args in
  let ic = Unix.open_process_in cmd in
  let rec collect acc =
    match input_line ic with
    | line -> collect (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = collect [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some lines
  | _ -> None

let test_no_tracked_build_artifacts () =
  match find_root (Sys.getcwd ()) with
  | None -> () (* not a git checkout: nothing to enforce *)
  | Some root -> (
      match git_lines root "ls-files _build" with
      | None -> () (* git unavailable *)
      | Some files ->
          Alcotest.(check (list string)) "files tracked under _build/" [] files)

let test_gitignore_covers_build () =
  match find_root (Sys.getcwd ()) with
  | None -> ()
  | Some root ->
      let path = Filename.concat root ".gitignore" in
      if Sys.file_exists path then begin
        let ic = open_in path in
        let rec has_build () =
          match input_line ic with
          | line -> String.trim line = "_build/" || has_build ()
          | exception End_of_file -> false
        in
        let covered = has_build () in
        close_in ic;
        Alcotest.(check bool) ".gitignore lists _build/" true covered
      end

(* Run artifacts the binaries generate in place — checkpoints, bench
   JSON, telemetry traces and metrics dumps — must be ignored, never
   tracked: they differ per machine and per run. *)
let generated_patterns =
  [
    "ckpt.*"; "bench_smoke.json"; "*.prom"; "*.trace.json"; "*.jsonl"; "*.sbg";
    "scale_smoke.json";
  ]

let test_gitignore_covers_generated_artifacts () =
  match find_root (Sys.getcwd ()) with
  | None -> ()
  | Some root ->
      let path = Filename.concat root ".gitignore" in
      if Sys.file_exists path then begin
        let ic = open_in path in
        let rec lines acc =
          match input_line ic with
          | line -> lines (String.trim line :: acc)
          | exception End_of_file -> acc
        in
        let patterns = lines [] in
        close_in ic;
        List.iter
          (fun p ->
            Alcotest.(check bool)
              (Printf.sprintf ".gitignore lists %s" p)
              true (List.mem p patterns))
          generated_patterns
      end

let test_no_tracked_generated_artifacts () =
  match find_root (Sys.getcwd ()) with
  | None -> ()
  | Some root -> (
      match
        git_lines root
          "ls-files -- 'ckpt.*' '*.prom' '*.trace.json' 'bench_smoke.json' \
           '*.bench' '*.jsonl' '*.sbg' 'scale_smoke.json'"
      with
      | None -> ()
      | Some files ->
          Alcotest.(check (list string)) "tracked generated artifacts" [] files)

(* Every phase's span and histogram name is spelled once, in the phase
   table ({!Nsobs.Phase}): a quoted table name anywhere else under lib/
   or bench/ is a second spelling that can drift from it. *)
let rec source_files dir =
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then source_files path @ acc
      else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli" then
        path :: acc
      else acc)
    [] (Sys.readdir dir)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_phase_names_only_in_table () =
  match find_root (Sys.getcwd ()) with
  | None -> ()
  | Some root ->
      let table = Filename.concat (Filename.concat (Filename.concat root "lib") "obs") "phase.ml" in
      let names =
        List.concat_map
          (fun (p : Nsobs.Phase.t) ->
            p.span :: (match p.hist with Some h -> [ h.metric ] | None -> []))
          Nsobs.Phase.all
      in
      let offences =
        List.concat_map
          (fun file ->
            if file = table then []
            else
              let text = In_channel.with_open_bin file In_channel.input_all in
              List.filter_map
                (fun name ->
                  if contains text ("\"" ^ name ^ "\"") then
                    Some (Printf.sprintf "%s: \"%s\"" file name)
                  else None)
                names)
          (List.concat_map
             (fun d -> source_files (Filename.concat root d))
             [ "lib"; "bench" ])
      in
      Alcotest.(check (list string)) "phase names spelled outside the table" []
        (List.sort compare offences)

(* The fault-site table and the code agree: every site literal passed
   to [Faults.fires] or [Faults.trip] under lib/ is in
   {!Nsutil.Faults.known_sites}, and every known site has a call site.
   A call whose site is not a literal cannot be checked and fails too. *)
let fault_call_sites text =
  let n = String.length text in
  let is_space c = c = ' ' || c = '\n' || c = '\t' || c = '\r' in
  let rec skip_space i = if i < n && is_space text.[i] then skip_space (i + 1) else i in
  let rec skip_word i = if i < n && not (is_space text.[i]) then skip_word (i + 1) else i in
  let site_after i =
    (* [i] is just past the function name: skip the plan argument. *)
    let j = skip_space (skip_word (skip_space i)) in
    if j < n && text.[j] = '"' then
      match String.index_from_opt text (j + 1) '"' with
      | Some k -> Some (String.sub text (j + 1) (k - j - 1))
      | None -> None
    else None
  in
  let rec scan i acc =
    if i >= n then List.rev acc
    else
      match
        List.find_opt
          (fun f -> i + String.length f <= n && String.sub text i (String.length f) = f)
          [ "Faults.fires "; "Faults.trip " ]
      with
      | Some f ->
          let j = i + String.length f in
          scan j (site_after (j - 1) :: acc)
      | None -> scan (i + 1) acc
  in
  scan 0 []

let test_fault_sites_match_code () =
  match find_root (Sys.getcwd ()) with
  | None -> ()
  | Some root ->
      let calls =
        List.concat_map
          (fun file ->
            let text = In_channel.with_open_bin file In_channel.input_all in
            List.map (fun site -> (file, site)) (fault_call_sites text))
          (source_files (Filename.concat root "lib"))
      in
      let offences =
        List.filter_map
          (fun (file, site) ->
            match site with
            | None -> Some (Printf.sprintf "%s: fault site not a string literal" file)
            | Some s when not (List.mem s Nsutil.Faults.known_sites) ->
                Some (Printf.sprintf "%s: site %S not in Faults.known_sites" file s)
            | Some _ -> None)
          calls
      in
      Alcotest.(check (list string)) "fault sites outside the table" []
        (List.sort compare offences);
      let fired = List.filter_map snd calls in
      Alcotest.(check (list string)) "known sites no code fires" []
        (List.filter (fun s -> not (List.mem s fired)) Nsutil.Faults.known_sites)

let () =
  Alcotest.run "repo_hygiene"
    [
      ( "hygiene",
        [
          Alcotest.test_case "no tracked _build artifacts" `Quick
            test_no_tracked_build_artifacts;
          Alcotest.test_case ".gitignore covers _build/" `Quick
            test_gitignore_covers_build;
          Alcotest.test_case ".gitignore covers generated artifacts" `Quick
            test_gitignore_covers_generated_artifacts;
          Alcotest.test_case "no tracked generated artifacts" `Quick
            test_no_tracked_generated_artifacts;
          Alcotest.test_case "phase names only in the phase table" `Quick
            test_phase_names_only_in_table;
          Alcotest.test_case "fault sites match the code" `Quick
            test_fault_sites_match_code;
        ] );
    ]
