module Sha256 = Scrypto.Sha256

type kind = Engine | Churn

let kind_to_string = function Engine -> "engine" | Churn -> "churn"
let kind_code = function Engine -> 0 | Churn -> 1
let kind_of_code = function 0 -> Some Engine | 1 -> Some Churn | _ -> None

type frame = { round : int; kind : kind; payload : string }

type error =
  | Io of string
  | Bad_magic
  | Unsupported_version of int
  | Unsupported_kind of int
  | Truncated
  | Corrupt
  | Config_mismatch of { expected : string; found : string }

exception Error of error

let error_to_string = function
  | Io m -> Printf.sprintf "checkpoint I/O error: %s" m
  | Bad_magic -> "not a checkpoint file (bad magic)"
  | Unsupported_version v -> Printf.sprintf "unsupported checkpoint version %d" v
  | Unsupported_kind k -> Printf.sprintf "unsupported checkpoint record kind %d" k
  | Truncated -> "truncated checkpoint file"
  | Corrupt -> "corrupt checkpoint file (checksum mismatch)"
  | Config_mismatch { expected; found } ->
      Printf.sprintf
        "checkpoint was written by a different configuration/topology (digest %s, \
         expected %s)"
        found expected

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Checkpoint.Error (%s)" (error_to_string e))
    | _ -> None)

(* On-disk layout, all integers big-endian:

     magic   "SBGPCKP1"                        8 bytes
     version u16 (= 4)                         2 bytes
     kind    u16 (0 = engine, 1 = churn)       2 bytes
     digest  config/topology SHA-256          32 bytes
     round   u32                               4 bytes
     length  payload bytes, u64                8 bytes
     payload                                   (length)
     footer  SHA-256 of everything above      32 bytes

   Only version 4 loads. Version 3 shared this header but its payloads
   embedded whole statics records (version 4 stores only the store's
   residency and counters), version 2 carried the engine's older
   progress layout, and version 1 had no kind field; [Marshal] encodes
   layout, not meaning, so all three are rejected with
   [Unsupported_version] rather than unmarshaled under today's
   types.

   The footer authenticates the frame against torn writes and bit
   rot; the digest ties the snapshot to the inputs that produced it.
   Only after both checks pass is the payload (a [Marshal] blob)
   handed back — unmarshaling untrusted bytes is never safe, so the
   checksum is the gate. *)

(* Observability: the write and load phases ({!Nsobs.Phase}) carry the
   spans and duration histograms; these count frames and bytes. Purely
   observational — framing and validation are untouched. *)
let counter help name = lazy (Nsobs.Metrics.counter ~help name)
let m_writes = counter "checkpoint frames written" "checkpoint_write_total"
let m_loads = counter "checkpoint frames loaded successfully" "checkpoint_load_total"

let m_load_errors =
  counter "checkpoint loads rejected (I/O or validation)" "checkpoint_load_error_total"

let m_bytes_written = counter "checkpoint bytes written (framed)" "checkpoint_bytes_written_total"

let magic = "SBGPCKP1"
let version = 4
let digest_len = 32

let digest_off = 8 + 2 + 2 (* magic, version, kind *)
let header_len = digest_off + digest_len + 4 + 8
let footer_len = digest_len

let frame_bytes ~kind ~digest ~round ~payload =
  if String.length digest <> digest_len then
    invalid_arg "Checkpoint.write: digest must be 32 raw bytes";
  let buf = Buffer.create (header_len + String.length payload + footer_len) in
  Buffer.add_string buf magic;
  Buffer.add_uint16_be buf version;
  Buffer.add_uint16_be buf (kind_code kind);
  Buffer.add_string buf digest;
  Buffer.add_int32_be buf (Int32.of_int round);
  Buffer.add_int64_be buf (Int64.of_int (String.length payload));
  Buffer.add_string buf payload;
  let body = Buffer.contents buf in
  body ^ Sha256.digest_string body

let write ?faults ?(kind = Engine) ~path ~digest ~round payload =
  Nsobs.Phase.run Nsobs.Phase.checkpoint_write @@ fun () ->
  (* Fault injection, site [checkpoint.io]: the write call itself
     fails — the typed error a caller's degradation path must absorb
     without losing the previous valid snapshot (which the tmp+rename
     protocol never touched). *)
  (match faults with
  | Some f when Nsutil.Faults.fires f "checkpoint.io" <> None ->
      raise (Error (Io "injected fault (site checkpoint.io)"))
  | _ -> ());
  let bytes = Bytes.of_string (frame_bytes ~kind ~digest ~round ~payload) in
  (* Fault injection, site [checkpoint.corrupt]: flip one payload byte
     *after* the checksum was computed — the canonical corruption a
     reader must reject. *)
  (match faults with
  | Some f when Nsutil.Faults.fires f "checkpoint.corrupt" <> None ->
      let i = header_len + (String.length payload / 2) in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x5a))
  | _ -> ());
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_bytes oc bytes);
    Sys.rename tmp path
  with
  | () ->
      if Nsobs.Metrics.enabled () then begin
        Nsobs.Metrics.inc (Lazy.force m_writes);
        Nsobs.Metrics.add (Lazy.force m_bytes_written) (Bytes.length bytes)
      end;
      if Nsobs.Journal.enabled () then
        Nsobs.Journal.event "checkpoint_write"
          [
            ("kind", Nsobs.Journal.Str (kind_to_string kind));
            ("round", Nsobs.Journal.Int round);
            ("bytes", Nsobs.Journal.Int (Bytes.length bytes));
          ]
  | exception Sys_error m -> raise (Error (Io m))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let hex = Sha256.hex

(* The [Error] exception shadows [result]'s constructor in this file;
   [err] builds the result explicitly. *)
let err e : (frame, error) result = Stdlib.Error e

let load_frame ~path ~digest =
  if String.length digest <> digest_len then
    invalid_arg "Checkpoint.load: digest must be 32 raw bytes";
  match read_file path with
  | exception Sys_error m -> err (Io m)
  | exception End_of_file -> err Truncated
  | s ->
      let len = String.length s in
      let prefix = min len (String.length magic) in
      if String.sub s 0 prefix <> String.sub magic 0 prefix then err Bad_magic
      else if len < 10 then err Truncated
      else begin
        let v = String.get_uint16_be s 8 in
        if v <> version then err (Unsupported_version v)
        else if len < header_len + footer_len then err Truncated
        else begin
          let kind_code = String.get_uint16_be s 10 in
          match kind_of_code kind_code with
          | None -> err (Unsupported_kind kind_code)
          | Some kind ->
              let payload_len =
                Int64.to_int (String.get_int64_be s (digest_off + digest_len + 4))
              in
              let total = header_len + payload_len + footer_len in
              if payload_len < 0 || len < total then err Truncated
              else if len > total then err Corrupt
              else begin
                let body = String.sub s 0 (header_len + payload_len) in
                let footer = String.sub s (header_len + payload_len) footer_len in
                if not (String.equal (Sha256.digest_string body) footer) then err Corrupt
                else begin
                  let found = String.sub s digest_off digest_len in
                  if not (String.equal found digest) then
                    err (Config_mismatch { expected = hex digest; found = hex found })
                  else
                    let round = String.get_int32_be s (digest_off + digest_len) in
                    Ok
                      {
                        round = Int32.to_int round;
                        kind;
                        payload = String.sub s header_len payload_len;
                      }
                end
              end
        end
      end

let load ~path ~digest =
  Nsobs.Phase.run Nsobs.Phase.checkpoint_load @@ fun () ->
  let r = load_frame ~path ~digest in
  if Nsobs.Metrics.enabled () then
    (match r with
    | Ok _ -> Nsobs.Metrics.inc (Lazy.force m_loads)
    | Stdlib.Error _ -> Nsobs.Metrics.inc (Lazy.force m_load_errors));
  if Nsobs.Journal.enabled () then
    (match r with
    | Ok f ->
        Nsobs.Journal.event "checkpoint_load"
          [
            ("kind", Nsobs.Journal.Str (kind_to_string f.kind));
            ("round", Nsobs.Journal.Int f.round);
          ]
    | Stdlib.Error e ->
        Nsobs.Journal.event "checkpoint_load_error"
          [ ("error", Nsobs.Journal.Str (error_to_string e)) ]);
  r

let load_exn ~path ~digest =
  match load ~path ~digest with Ok v -> v | Stdlib.Error e -> raise (Error e)
