(* Tests for the utility layer added on top of the core reproduction:
   schedule compression, buffer tightening, kernel auto-binding, and the
   partition DOT export. *)

module G = Ccs.Graph
module R = Ccs.Rates
module S = Ccs.Schedule

(* --- Schedule.compress ------------------------------------------------------ *)

let test_compress_rle () =
  let s = S.of_list [ 0; 0; 0; 1; 1 ] in
  let c = S.compress s in
  Alcotest.(check bool) "equivalent" true (S.equivalent s c);
  (match c with
  | S.Seq [ S.Repeat (3, S.Fire 0); S.Repeat (2, S.Fire 1) ] -> ()
  | _ -> Alcotest.failf "unexpected shape: %s" (Format.asprintf "%a" S.pp c));
  Alcotest.(check int) "same length" (S.length s) (S.length c)

let test_compress_flattens () =
  let s = S.seq [ S.seq [ S.fire 0; S.fire 1 ]; S.seq []; S.fire 1 ] in
  let c = S.compress s in
  Alcotest.(check bool) "equivalent" true (S.equivalent s c);
  match c with
  | S.Seq [ S.Fire 0; S.Repeat (2, S.Fire 1) ] -> ()
  | _ -> Alcotest.failf "unexpected shape: %s" (Format.asprintf "%a" S.pp c)

let test_compress_nested_repeats () =
  let s = S.repeat 3 (S.repeat 4 (S.fire 7)) in
  (match S.compress s with
  | S.Repeat (12, S.Fire 7) -> ()
  | c -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" S.pp c));
  (match S.compress (S.repeat 0 (S.fire 1)) with
  | S.Seq [] -> ()
  | c -> Alcotest.failf "zero repeat: %s" (Format.asprintf "%a" S.pp c));
  match S.compress (S.repeat 1 (S.fire 2)) with
  | S.Fire 2 -> ()
  | c -> Alcotest.failf "unit repeat: %s" (Format.asprintf "%a" S.pp c)

let gen_schedule =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 1 then map (fun v -> S.Fire v) (int_range 0 4)
        else
          oneof
            [
              map (fun v -> S.Fire v) (int_range 0 4);
              map (fun l -> S.Seq l) (list_size (int_range 0 4) (self (n / 2)));
              map2
                (fun k b -> S.Repeat (k, b))
                (int_range 0 3) (self (n / 2));
            ]))

let prop_compress_preserves_semantics =
  QCheck2.Test.make ~name:"compress preserves firing sequence" ~count:500
    gen_schedule
    (fun s -> S.equivalent s (S.compress s))

let prop_compress_never_longer =
  QCheck2.Test.make ~name:"compress never increases node count" ~count:500
    gen_schedule
    (fun s ->
      let rec size = function
        | S.Fire _ -> 1
        | S.Seq l -> 1 + List.fold_left (fun a x -> a + size x) 0 l
        | S.Repeat (_, b) -> 1 + size b
      in
      size (S.compress s) <= size s)

(* --- Minbuf.feasible / tighten ---------------------------------------------- *)

let test_feasible_basic () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:2 () in
  let a = R.analyze_exn g in
  Alcotest.(check bool) "capacity 1 feasible" true
    (Ccs.Minbuf.feasible g a ~capacities:[| 1; 1; 1 |]);
  Alcotest.(check bool) "capacity 0 infeasible" false
    (Ccs.Minbuf.feasible g a ~capacities:[| 0; 1; 1 |])

let test_feasible_multirate () =
  (* src -3/2-> sink needs at least 4 tokens of buffer (3 produced, then
     another 3 with 1 left over). *)
  let g =
    Ccs.Generators.pipeline ~n:2 ~state:(fun _ -> 1) ~rates:(fun _ -> (3, 2)) ()
  in
  let a = R.analyze_exn g in
  Alcotest.(check bool) "4 feasible" true
    (Ccs.Minbuf.feasible g a ~capacities:[| 4 |]);
  Alcotest.(check bool) "3 infeasible" false
    (Ccs.Minbuf.feasible g a ~capacities:[| 3 |])

let test_tighten_no_worse () =
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let a = R.analyze_exn g in
      let base = (Ccs.Minbuf.compute g a).Ccs.Minbuf.capacity in
      let tight = Ccs.Minbuf.tighten g a () in
      Array.iteri
        (fun e c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s edge %d no larger" entry.Ccs_apps.Suite.name e)
            true (c <= base.(e)))
        tight;
      Alcotest.(check bool)
        (entry.Ccs_apps.Suite.name ^ " still feasible")
        true
        (Ccs.Minbuf.feasible g a ~capacities:tight))
    Ccs_apps.Suite.all

let test_tighten_reaches_floor () =
  let g = Ccs.Generators.uniform_pipeline ~n:5 ~state:2 () in
  let a = R.analyze_exn g in
  let tight = Ccs.Minbuf.tighten g a ~capacities:[| 50; 50; 50; 50 |] () in
  Alcotest.(check (array int)) "all shrink to 1" [| 1; 1; 1; 1 |] tight

(* --- Kernels.autobind -------------------------------------------------------- *)

let test_autobind_every_app_runs_data () =
  let cfg = Ccs.Config.make ~cache_words:2048 ~block_words:16 () in
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let program = Ccs.Program.create g (Ccs.Kernels.autobind g) in
      let choice = Ccs.Auto.plan ~dynamic:false g cfg in
      let engine =
        Ccs.Engine.of_plan ~program ~cache:(Ccs.Config.cache_config cfg)
          ~plan:choice.Ccs.Auto.plan ()
      in
      let r = Ccs.Engine.run_plan engine choice.Ccs.Auto.plan ~outputs:50 in
      Alcotest.(check bool)
        (entry.Ccs_apps.Suite.name ^ " ran real data")
        true
        (r.Ccs.Runner.outputs >= 50))
    Ccs_apps.Suite.all

let test_autobind_generators () =
  List.iter
    (fun g ->
      let program = Ccs.Program.create g (Ccs.Kernels.autobind g) in
      let a = R.analyze_exn g in
      let plan = Ccs.Baseline.minimal_memory g a in
      let engine =
        Ccs.Engine.of_plan ~program
          ~cache:(Ccs.Cache.config ~size_words:512 ~block_words:16 ())
          ~plan ()
      in
      let r = Ccs.Engine.run_plan engine plan ~outputs:20 in
      Alcotest.(check bool) "ran" true (r.Ccs.Runner.outputs >= 20))
    [
      Ccs.Generators.butterfly ~stages:3 ~state:8 ();
      Ccs.Generators.random_sdf_dag ~seed:3 ~n:10 ~max_state:8 ~max_rate:4
        ~extra_edges:4 ();
      Ccs.Generators.up_down_sampler ~stages:3 ~factor:4 ~state:8 ();
    ]

(* --- Spec.to_dot -------------------------------------------------------------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_partition_dot () =
  let g = Ccs.Generators.uniform_pipeline ~n:6 ~state:10 () in
  let spec = Ccs.Spec.of_assignment g [| 0; 0; 1; 1; 2; 2 |] in
  let dot = Ccs.Spec.to_dot spec in
  Alcotest.(check bool) "three clusters" true
    (contains dot "cluster_0" && contains dot "cluster_1"
   && contains dot "cluster_2");
  Alcotest.(check bool) "cross edges bold" true (contains dot "style=bold");
  Alcotest.(check bool) "labels carry state" true (contains dot "(10)")

(* --- Clock ------------------------------------------------------------------ *)

let test_clock_monotone () =
  let prev = ref (Ccs.Clock.now_us ()) in
  for _ = 1 to 1000 do
    let now = Ccs.Clock.now_us () in
    Alcotest.(check bool) "never goes backwards" true (now >= !prev);
    prev := now
  done

let test_clock_is_wall_time () =
  (* The bug this replaces: Sys.time measures CPU seconds, so a sleeping
     process reported ~zero latency.  Wall-clock time must see the sleep. *)
  let t0 = Ccs.Clock.now_us () in
  Unix.sleepf 0.02;
  let elapsed = Ccs.Clock.elapsed_us ~since:t0 in
  Alcotest.(check bool)
    (Printf.sprintf "sleep visible (elapsed %dus)" elapsed)
    true
    (elapsed >= 10_000)

(* --- Binio.write_atomic ----------------------------------------------------- *)

let test_write_atomic_basic () =
  let dir = Filename.temp_file "ccs-wa" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "out.txt" in
  Ccs.Binio.write_atomic ~path "first\n";
  Ccs.Binio.write_atomic ~path "second\n";
  Alcotest.(check string)
    "last write wins" "second\n"
    (In_channel.with_open_text path In_channel.input_all);
  Alcotest.(check (list string))
    "no stray temp files" [ "out.txt" ]
    (Array.to_list (Sys.readdir dir))

let test_write_atomic_concurrent_writers () =
  (* The clobber this discipline fixes: two processes writing the same
     path with a fixed "path ^ .tmp" name can interleave create/rename
     and install a torn file.  With unique temp names, every reader sees
     one writer's complete document, and no temp files survive. *)
  let dir = Filename.temp_file "ccs-wa" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "contended.txt" in
  let writers = 4 and rounds = 50 in
  let payload w = String.concat "" (List.init 64 (fun _ -> string_of_int w)) in
  flush stdout;
  flush stderr;
  let spawn w =
    match Unix.fork () with
    | 0 ->
        for _ = 1 to rounds do
          Ccs.Binio.write_atomic ~path (payload w)
        done;
        Unix._exit 0
    | pid -> pid
  in
  let pids = List.init writers spawn in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "writer process failed")
    pids;
  let final = In_channel.with_open_text path In_channel.input_all in
  Alcotest.(check bool)
    "final contents are one writer's complete document" true
    (List.exists (fun w -> final = payload w) (List.init writers Fun.id));
  Alcotest.(check (list string))
    "no temp files left behind" [ "contended.txt" ]
    (Array.to_list (Sys.readdir dir))

(* --- Binio.ensure_dir ------------------------------------------------------- *)

let test_ensure_dir () =
  let root = Filename.temp_file "ccs-ed" "" in
  Sys.remove root;
  let nested = Filename.concat (Filename.concat root "a") "b" in
  Ccs.Binio.ensure_dir nested;
  Alcotest.(check bool) "parents created" true (Sys.is_directory nested);
  Ccs.Binio.ensure_dir nested;
  (* sibling workers racing to create the same fresh tree all succeed *)
  let contested = Filename.concat (Filename.concat root "c") "d" in
  flush stdout;
  flush stderr;
  let spawn _ =
    match Unix.fork () with
    | 0 -> (
        match Ccs.Binio.ensure_dir contested with
        | () -> Unix._exit 0
        | exception _ -> Unix._exit 1)
    | pid -> pid
  in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "a racing ensure_dir failed")
    (List.init 4 spawn);
  Alcotest.(check bool) "raced tree exists" true (Sys.is_directory contested);
  (* a regular file in the way is a structured Io error naming it *)
  let file = Filename.concat root "file" in
  Out_channel.with_open_text file (fun oc -> output_string oc "x");
  match Ccs.Binio.ensure_dir file with
  | () -> Alcotest.fail "a regular file was accepted as a directory"
  | exception Ccs.Error.Error (Ccs.Error.Io { path; _ }) ->
      Alcotest.(check string) "Io error names the path" file path

let () =
  Alcotest.run "utilities"
    [
      ( "compress",
        [
          Alcotest.test_case "rle" `Quick test_compress_rle;
          Alcotest.test_case "flatten" `Quick test_compress_flattens;
          Alcotest.test_case "nested repeats" `Quick
            test_compress_nested_repeats;
          QCheck_alcotest.to_alcotest prop_compress_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_compress_never_longer;
        ] );
      ( "tighten",
        [
          Alcotest.test_case "feasible basic" `Quick test_feasible_basic;
          Alcotest.test_case "feasible multirate" `Quick
            test_feasible_multirate;
          Alcotest.test_case "tighten no worse" `Quick test_tighten_no_worse;
          Alcotest.test_case "tighten floor" `Quick test_tighten_reaches_floor;
        ] );
      ( "autobind",
        [
          Alcotest.test_case "every app runs data" `Slow
            test_autobind_every_app_runs_data;
          Alcotest.test_case "generators run data" `Quick
            test_autobind_generators;
        ] );
      ( "dot",
        [ Alcotest.test_case "partition dot" `Quick test_partition_dot ] );
      ( "clock",
        [
          Alcotest.test_case "monotone" `Quick test_clock_monotone;
          Alcotest.test_case "wall time, not cpu time" `Quick
            test_clock_is_wall_time;
        ] );
      ( "write-atomic",
        [
          Alcotest.test_case "basic" `Quick test_write_atomic_basic;
          Alcotest.test_case "concurrent writers" `Quick
            test_write_atomic_concurrent_writers;
        ] );
      ( "ensure-dir",
        [ Alcotest.test_case "parents, races, files" `Quick test_ensure_dir ]
      );
    ]
