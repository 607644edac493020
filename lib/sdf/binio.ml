(* Framed, checksummed binary files for checkpoints and session snapshots.

   Layout: an 8-byte magic naming the file kind, a format-version int, the
   payload length, an FNV-1a 64-bit checksum of the payload, then the
   payload itself.  Every scalar is a little-endian 64-bit integer, so the
   format is independent of the host's word size.  [read_file] re-validates
   the whole frame — magic, version, declared length, checksum — before
   handing the payload to the caller, so truncation and bit corruption are
   caught at the file boundary rather than as garbage state downstream. *)

let header_bytes = 32 (* magic 8 + version 8 + length 8 + checksum 8 *)

let fnv1a64 s =
  let h = ref (-0x340d631b7bdddcdb) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 1024
  let int b i = Buffer.add_int64_le b (Int64.of_int i)
  let float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let int_array b a =
    int b (Array.length a);
    Array.iter (int b) a

  let float_array b a =
    int b (Array.length a);
    Array.iter (float b) a

  let contents = Buffer.contents
end

module R = struct
  type t = { path : string; data : string; mutable pos : int }

  let corrupt t reason = Error.fail (Error.Checkpoint_corrupt { path = t.path; reason })
  let of_string ~path data = { path; data; pos = 0 }

  let take t n =
    if n < 0 || t.pos > String.length t.data - n then
      corrupt t
        (Printf.sprintf "payload underrun at byte %d (want %d of %d)" t.pos n
           (String.length t.data));
    let p = t.pos in
    t.pos <- p + n;
    p

  let int t =
    let p = take t 8 in
    Int64.to_int (String.get_int64_le t.data p)

  let float t =
    let p = take t 8 in
    Int64.float_of_bits (String.get_int64_le t.data p)

  let string t =
    let n = int t in
    if n < 0 then corrupt t "negative string length";
    let p = take t n in
    String.sub t.data p n

  let int_array t =
    let n = int t in
    if n < 0 || n > (String.length t.data - t.pos) / 8 then
      corrupt t "implausible array length";
    Array.init n (fun _ -> int t)

  let float_array t =
    let n = int t in
    if n < 0 || n > (String.length t.data - t.pos) / 8 then
      corrupt t "implausible array length";
    Array.init n (fun _ -> float t)

  let expect_end t =
    if t.pos <> String.length t.data then corrupt t "trailing bytes in payload"
end

let check_magic magic =
  if String.length magic <> 8 then
    invalid_arg "Binio: magic must be exactly 8 bytes"

(* Write-to-temp-then-rename.  The temp name must be unique per writer: a
   fixed [path ^ ".tmp"] lets two concurrent writers (daemon workers,
   parallel bench runs) open the same temp file and rename each other's
   half-written bytes into place.  pid + a process-local counter
   disambiguate writers; O_EXCL catches the leftovers of a crashed
   predecessor (we retry with the next counter value rather than truncate
   a file another live writer may be filling). *)
let tmp_counter = ref 0

let write_atomic ?(binary = false) ~path content =
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  let rec open_tmp attempts =
    incr tmp_counter;
    let tmp =
      Filename.concat dir
        (Printf.sprintf ".%s.%d.%d.tmp" base (Unix.getpid ()) !tmp_counter)
    in
    let flags =
      [ Open_wronly; Open_creat; Open_excl;
        (if binary then Open_binary else Open_text) ]
    in
    match open_out_gen flags 0o644 tmp with
    | oc -> (tmp, oc)
    | exception Sys_error _ when attempts > 0 -> open_tmp (attempts - 1)
  in
  let tmp, oc = open_tmp 16 in
  (try
     output_string oc content;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  try Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* A sibling worker may create [dir] between the existence test and the
   mkdir; that failure is fine as long as the directory is there now. *)
let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end;
  if not (Sys.is_directory dir) then
    Error.fail
      (Error.Io { path = dir; reason = "exists but is not a directory" })

let write_file ~path ~magic ~version payload =
  check_magic magic;
  let b = Buffer.create (header_bytes + String.length payload) in
  Buffer.add_string b magic;
  Buffer.add_int64_le b (Int64.of_int version);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_int64_le b (Int64.of_int (fnv1a64 payload));
  Buffer.add_string b payload;
  write_atomic ~binary:true ~path (Buffer.contents b)

let read_file ~path ~magic ~version () =
  check_magic magic;
  let corrupt reason =
    Result.error (Error.Checkpoint_corrupt { path; reason })
  in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error reason -> Result.error (Error.Io { path; reason })
  | exception End_of_file -> corrupt "truncated while reading"
  | data ->
      if String.length data < header_bytes then
        corrupt
          (Printf.sprintf "file is %d bytes, shorter than the %d-byte header"
             (String.length data) header_bytes)
      else if String.sub data 0 8 <> magic then
        corrupt
          (Printf.sprintf "bad magic %S (expected %S)" (String.sub data 0 8)
             magic)
      else
        let found = Int64.to_int (String.get_int64_le data 8) in
        if found <> version then
          Result.error
            (Error.Checkpoint_version { path; found; expected = version })
        else
          let len = Int64.to_int (String.get_int64_le data 16) in
          let sum = Int64.to_int (String.get_int64_le data 24) in
          if len < 0 || len <> String.length data - header_bytes then
            corrupt
              (Printf.sprintf
                 "declared payload of %d bytes, found %d (truncated or \
                  overlong file)"
                 len
                 (String.length data - header_bytes))
          else
            let payload = String.sub data header_bytes len in
            if fnv1a64 payload <> sum then
              corrupt "payload checksum mismatch (bit corruption)"
            else Ok payload
