(* The serve workloads' moving parts: the request generators, the
   answer checks, the daemon process and its /metrics scrape. *)

module Server = Ccs_serve.Server
module Json = Ccs.Json

(* --- requests -------------------------------------------------------------- *)

type request = {
  line : string;  (** One protocol line, without the newline. *)
  key : int;  (** Index into the primed responses; [-1] for a fresh graph. *)
}

let plan_line ?ways g ~cache_words =
  Json.to_string
    (Json.Obj
       ([
          ("op", Json.String "plan");
          ("graph", Json.String (Ccs.Serial.to_text g));
          ("cache_words", Json.Int cache_words);
          ("block_words", Json.Int 16);
        ]
       @ match ways with None -> [] | Some w -> [ ("ways", Json.Int w) ]))

(* serve-warm keys: every suite app under eight cache configurations,
   96 keys, so the working set overflows the daemon's default 64-entry
   hot cache and a share of the hits is served from the disk store. *)
let warm_keys () =
  let configs =
    List.concat_map
      (fun m -> [ (m, None); (m, Some 8) ])
      [ 512; 1024; 2048; 4096 ]
  in
  Array.of_list
    (List.concat_map
       (fun e ->
         let g = e.Ccs_apps.Suite.graph () in
         List.map (fun (m, ways) -> plan_line ?ways g ~cache_words:m) configs)
       Ccs_apps.Suite.all)

(* serve-cold: a never-before-seen graph per request.  The name embeds
   the stream and index, so every request has its own plan key even if
   two generated topologies coincide.  A third of the requests are
   pipelines (the DP partitioner), a third small DAGs of at most 16
   modules (the exact search) and a third larger DAGs or split-joins of
   17 to 100 modules (greedy plus refinement).  Rates and state sizes
   are capped where the partitioners' run time has no long tail. *)
let cold_request ~stream i =
  let rng = Random.State.make [| stream; i |] in
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let seed = Random.State.bits rng in
  let name = Printf.sprintf "cold-%d-%d" stream i in
  let g =
    match i mod 6 with
    | 0 | 3 ->
        Ccs.Generators.random_pipeline ~name ~seed ~n:(int 8 40)
          ~max_state:512 ~max_rate:2 ()
    | 1 | 4 ->
        Ccs.Generators.random_sdf_dag ~name ~seed ~n:(int 6 16)
          ~max_state:512 ~max_rate:3 ~extra_edges:(int 0 5) ()
    | 2 ->
        Ccs.Generators.random_sdf_dag ~name ~seed ~n:(int 17 100)
          ~max_state:256 ~max_rate:3 ~extra_edges:(int 0 20) ()
    | _ ->
        Ccs.Generators.split_join ~name ~branches:(int 2 6) ~depth:(int 2 12)
          ~state:(int 64 256) ()
  in
  let cache_words = [| 512; 1024; 2048; 4096 |].(int 0 3) in
  { line = plan_line g ~cache_words; key = -1 }

(* --- responses ------------------------------------------------------------- *)

(* Members of a response's top-level object, located by a scan instead of
   a parse: answers are up to a few KB, and the clients check every one
   inside the load loop, on the same CPUs as the loop itself. *)
let member_span s name =
  let n = String.length s in
  let key = "\"" ^ name ^ "\":" in
  let kl = String.length key in
  (* just past the string whose opening quote is before [i] *)
  let rec str_end i =
    if i >= n then n
    else match s.[i] with '\\' -> str_end (i + 2) | '"' -> i + 1 | _ -> str_end (i + 1)
  in
  let rec value_end i depth =
    if i >= n then n
    else
      match s.[i] with
      | '"' -> value_end (str_end (i + 1)) depth
      | '{' | '[' -> value_end (i + 1) (depth + 1)
      | ('}' | ']') when depth = 0 -> i
      | '}' | ']' -> value_end (i + 1) (depth - 1)
      | ',' when depth = 0 -> i
      | _ -> value_end (i + 1) depth
  in
  let rec scan i depth =
    if i >= n then None
    else
      match s.[i] with
      | '"' when depth = 1 && i + kl <= n && String.sub s i kl = key ->
          Some (i, value_end (i + kl) 0)
      | '"' -> scan (str_end (i + 1)) depth
      | '{' | '[' -> scan (i + 1) (depth + 1)
      | '}' | ']' -> scan (i + 1) (depth - 1)
      | _ -> scan (i + 1) depth
  in
  scan 0 0

(* The text of member [name]'s value. *)
let member s name =
  Option.map
    (fun (a, b) ->
      let v = a + String.length name + 3 in
      String.sub s v (b - v))
    (member_span s name)

(* A response minus the members that legitimately differ between a build
   and a hit: the cached flag, the elapsed time and the echoed trace id. *)
let strip_volatile line =
  List.fold_left
    (fun s name ->
      match member_span s name with
      | None -> s
      | Some (a, b) ->
          (* drop the member and one comma next to it *)
          let a, b =
            if b < String.length s && s.[b] = ',' then (a, b + 1)
            else if a > 0 && s.[a - 1] = ',' then (a - 1, b)
            else (a, b)
          in
          String.sub s 0 a ^ String.sub s b (String.length s - b))
    line
    [ "cached"; "elapsed_us"; "trace_id" ]

type outcome = Ok_response | Error_response | Overloaded | Mismatch

let outcome_name = function
  | Ok_response -> "ok"
  | Error_response -> "error_response"
  | Overloaded -> "overloaded"
  | Mismatch -> "mismatch"

(* Change one character of the plan key: the answer still parses and
   says ok, so only the comparison with the primed answer can catch it. *)
let garble s =
  let tag = "\"key\":\"" in
  let n = String.length tag in
  let rec find i =
    if i + n >= String.length s then None
    else if String.sub s i n = tag then Some (i + n)
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
      String.mapi (fun j ch -> if j = i then if ch = 'x' then 'y' else 'x' else ch) s

(* Classify one answer.  [primed.(key)] is the stripped response
   recorded when the key was primed (empty while it is being primed); a
   warm answer must equal it. *)
let classify ~primed (r : request) response =
  match member response "ok" with
  | Some "true" ->
      if r.key < 0 || primed.(r.key) = "" then Ok_response
      else if strip_volatile response = primed.(r.key) then Ok_response
      else Mismatch
  | _ -> (
      match Option.bind (member response "error") (fun e -> member e "code") with
      | Some "\"overloaded\"" -> Overloaded
      | _ -> Error_response)

(* One round trip exactly as `ccsched submit` makes it: connect, send
   the line, read the response line, close. *)
let round_trip address line =
  match Server.request ~timeout_ms:30_000 address line with
  | response -> Some response
  | exception (Unix.Unix_error _ | End_of_file | Sys_error _) -> None

(* --- the daemon ------------------------------------------------------------ *)

type daemon = { pid : int; address : Server.address }

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let live : daemon list ref = ref []

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

let () = at_exit (fun () -> List.iter stop !live)

let ping = Json.to_string (Json.Obj [ ("op", Json.String "ping") ])

(* Start `ccsched serve` with production defaults except one worker and
   a fresh state directory, and return once it answers a ping.  Paths
   are relative to the working directory: a Unix socket path must stay
   under 108 bytes wherever the checkout lives. *)
let start ~ccsched ~dir =
  remove_tree dir;
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  (* the daemon inherits the affinity in force when it is spawned *)
  Affinity.enter_daemon ();
  let pid =
    Fun.protect ~finally:Affinity.leave_daemon (fun () ->
        Unix.create_process ccsched
          [|
            ccsched; "serve"; "--socket"; sock; "--dir";
            Filename.concat dir "state"; "--workers"; "1";
          |]
          null log log)
  in
  Unix.close null;
  Unix.close log;
  let d = { pid; address = Server.Unix_socket sock } in
  live := d :: !live;
  let give_up = Stats.now_ns () + 30_000_000_000 in
  let rec wait () =
    match
      if Sys.file_exists sock then round_trip d.address ping else None
    with
    | Some _ -> d
    | None ->
        if Stats.now_ns () > give_up then begin
          stop d;
          failwith "ccsched serve did not answer a ping within 30s"
        end;
        Unix.sleepf 0.0002;
        wait ()
  in
  wait ()

(* GET /metrics over the daemon's own socket, parsed into
   (series, value) pairs; labelled series keep their label text. *)
let scrape d =
  let fd = Server.connect d.address in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let req = "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 8192 in
      let rec read () =
        match Unix.read fd chunk 0 8192 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            read ()
      in
      read ();
      String.split_on_char '\n' (Buffer.contents buf)
      |> List.filter_map (fun l ->
             if l = "" || l.[0] = '#' then None
             else
               match String.rindex_opt l ' ' with
               | None -> None
               | Some i ->
                   Option.map
                     (fun v -> (String.sub l 0 i, v))
                     (float_of_string_opt
                        (String.sub l (i + 1) (String.length l - i - 1)))))

let counter_names =
  [
    ("requests", "ccs_serve_requests_total");
    ("hits", "ccs_serve_cache_hits_total");
    ("misses", "ccs_serve_cache_misses_total");
    ("plan_builds", "ccs_serve_plan_builds_total");
    ("errors", "ccs_serve_errors_total");
    ("shed", "ccs_serve_shed_total");
    ("store_entries", "ccs_serve_store_entries");
  ]

let counters d =
  let page = scrape d in
  List.map
    (fun (short, series) ->
      (short, Option.value ~default:0. (List.assoc_opt series page)))
    counter_names

let deltas ~before ~after =
  List.map2
    (fun (k, b) (_, a) ->
      (* the store gauge is a level, the rest are counters *)
      (k, if k = "store_entries" then a else a -. b))
    before after

(* --- samples ---------------------------------------------------------------- *)

type sample = { start_ns : int; latency_ns : int; outcome : outcome }

(* --- windows --------------------------------------------------------------- *)

(* The measured loop cut into one-second windows by request start time.
   The host is shared and its speed changes by up to ~1.7x for seconds
   at a time; interference only ever adds time, so the end-to-end
   figures are each window statistic's best value.  A failed request
   counts as infinitely slow. *)
type window = {
  requests : int;
  throughput : float;  (** Completed requests per second. *)
  p50_us : float;
  p90_us : float;
}

let windows ~start ~seconds samples =
  let k = max 1 (int_of_float seconds) in
  let len = seconds *. 1e9 /. float_of_int k in
  let buckets = Array.make k [] in
  List.iter
    (fun s ->
      let i = int_of_float (float_of_int (s.start_ns - start) /. len) in
      if i >= 0 && i < k then buckets.(i) <- s :: buckets.(i))
    samples;
  Array.to_list buckets
  |> List.filter (fun b -> b <> [])
  |> List.map (fun b ->
         let lat = Stats.samples () in
         let ok = ref 0 in
         List.iter
           (fun s ->
             if s.outcome = Ok_response then begin
               incr ok;
               Stats.add lat (Stats.us_of_ns s.latency_ns)
             end
             else Stats.add lat Float.infinity)
           b;
         match Stats.percentiles lat [ 50.; 90. ] with
         | [ p50_us; p90_us ] ->
             {
               requests = List.length b;
               throughput = float_of_int !ok /. (len *. 1e-9);
               p50_us;
               p90_us;
             }
         | _ -> assert false)
