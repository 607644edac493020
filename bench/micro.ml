(* E12: Bechamel micro-benchmarks of the algorithms themselves —
   partitioning, rate analysis, and simulated-machine throughput.  These
   are about the *library's* speed (compile-time costs in the paper's
   setting), not cache misses. *)

open Bechamel
open Toolkit

let graph_pipeline = Ccs.Generators.uniform_pipeline ~n:128 ~state:32 ()
let graph_dag =
  Ccs.Generators.layered ~seed:5 ~layers:8 ~width:8
    ~state:(fun _ -> 16)
    ~edge_prob:0.3 ()
let graph_small =
  Ccs.Generators.layered ~seed:6 ~layers:3 ~width:3
    ~state:(fun _ -> 8)
    ~edge_prob:0.4 ()

let analysis_pipeline = Ccs.Rates.analyze_exn graph_pipeline
let analysis_small = Ccs.Rates.analyze_exn graph_small

let bench_rate_analysis =
  Test.make ~name:"rate-analysis-128"
    (Staged.stage (fun () -> Ccs.Rates.analyze_exn graph_pipeline))

let bench_minbuf =
  Test.make ~name:"minbuf-pass-128"
    (Staged.stage (fun () -> Ccs.Minbuf.compute graph_pipeline analysis_pipeline))

let bench_pipeline_dp =
  Test.make ~name:"pipeline-dp-128"
    (Staged.stage (fun () ->
         Ccs.Pipeline_partition.optimal_dp graph_pipeline analysis_pipeline
           ~bound:256))

let bench_pipeline_greedy =
  Test.make ~name:"pipeline-greedy-128"
    (Staged.stage (fun () ->
         Ccs.Pipeline_partition.greedy graph_pipeline analysis_pipeline ~m:64))

let bench_dag_greedy =
  Test.make ~name:"dag-greedy-64"
    (Staged.stage (fun () -> Ccs.Dag_partition.greedy graph_dag ~bound:128))

let bench_dag_exact =
  Test.make ~name:"dag-exact-11"
    (Staged.stage (fun () ->
         Ccs.Dag_partition.exact graph_small analysis_small ~bound:24 ()))

let bench_machine_throughput =
  (* Fires per second of the simulated machine. *)
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:32 () in
  let a = Ccs.Rates.analyze_exn g in
  let mb = Ccs.Minbuf.compute g a in
  Test.make ~name:"machine-1k-fires"
    (Staged.stage (fun () ->
         let m =
           Ccs.Machine.create ~graph:g
             ~cache:(Ccs.Cache.config ~size_words:256 ~block_words:16 ())
             ~capacities:mb.Ccs.Minbuf.capacity ()
         in
         let period = Ccs.Schedule.of_list mb.Ccs.Minbuf.schedule in
         for _ = 1 to 125 do
           Ccs.Schedule.run m period
         done))

let bench_engine_overhead =
  (* Data-carrying runtime vs bare machine: cost of moving real tokens. *)
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:32 () in
  let a = Ccs.Rates.analyze_exn g in
  let mb = Ccs.Minbuf.compute g a in
  let program = Ccs.Program.create g (Ccs.Codegen.codegen_semantics g) in
  Test.make ~name:"engine-1k-fires"
    (Staged.stage (fun () ->
         let e =
           Ccs.Engine.create ~program
             ~cache:(Ccs.Cache.config ~size_words:256 ~block_words:16 ())
             ~capacities:mb.Ccs.Minbuf.capacity ()
         in
         let period = Ccs.Schedule.of_list mb.Ccs.Minbuf.schedule in
         for _ = 1 to 125 do
           Ccs.Schedule.run (Ccs.Engine.machine e) period
         done))

let bench_lru =
  Test.make ~name:"lru-touch-10k"
    (Staged.stage (fun () ->
         let c =
           Ccs.Cache.create
             (Ccs.Cache.config ~size_words:1024 ~block_words:16 ())
         in
         for i = 0 to 9_999 do
           ignore (Ccs.Cache.touch c (i * 7 mod 4096))
         done))

let tests =
  Test.make_grouped ~name:"ccs"
    [
      bench_rate_analysis;
      bench_minbuf;
      bench_pipeline_dp;
      bench_pipeline_greedy;
      bench_dag_greedy;
      bench_dag_exact;
      bench_machine_throughput;
      bench_engine_overhead;
      bench_lru;
    ]

let run () =
  Util.section "E12-micro" "Bechamel micro-benchmarks (algorithm cost)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimates =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some [ est ] -> est
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      Json.point
        [
          ("kind", Json.String "micro");
          ("name", Json.String name);
          ("ns_per_run", Json.Float ns);
          ( "ops_per_sec",
            Json.Float (if ns > 0. then 1e9 /. ns else Float.nan) );
        ])
    estimates;
  let rows =
    List.map
      (fun (name, ns) ->
        [ name; Ccs.Table.fmt_float ns; Ccs.Table.fmt_float (ns /. 1e6) ])
      estimates
  in
  Ccs.Table.print ~header:[ "benchmark"; "ns/run"; "ms/run" ] ~rows
