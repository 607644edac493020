(* E22: adaptive resilience under seeded cache-shrink chaos.

   Each app runs three arms under the same chaos environment (the cache
   loses 3/4 of its capacity at epoch 2 and never recovers):

     stale    - the plan built for the full cache runs to the end;
     adapted  - the adaptation loop detects the degradation, degrades
                gracefully, and repartitions online for the estimated
                effective capacity (checkpointed state migration);
     scratch  - the plan built for the *shrunk* cache from epoch 0: the
                from-scratch optimum the adapted run chases.

   Acceptance: adapted beats stale on every app; the gap to scratch is
   reported; a data-carrying engine proves the adapted (migrated) run
   sinks bit-identical values to an undisturbed reference run; and the
   whole experiment is deterministic — two adapted runs produce identical
   metrics snapshots.

   Apps whose shrunk-cache plan is itself degenerate are excluded: fft and
   bitonic fit the shrunk cache (nothing to adapt), and des has modules too
   large to partition at 512 words, so *no* plan helps there — the planner
   has no answer for adaptation to converge to. *)

open Util

let apps =
  [
    "fm-radio"; "beamformer"; "filterbank"; "vocoder"; "radar"; "ofdm";
    "dct-codec"; "mp3";
  ]

let m = 2048
let b = 16
let divisor = 4
let shrink_epoch = 2
let outputs = 8_000
let epochs = 16

let chaos () =
  Ccs.Fault.env_of_sites
    [
      {
        Ccs.Fault.at_epoch = shrink_epoch;
        event = Ccs.Fault.Cache_shrink divisor;
      };
    ]

(* One arm: a supervised run with a data-carrying engine over the compiled
   backend's semantics attached to every machine the loop creates (the
   initial one and every migration target).  [adapt] arms run the planner's
   plan with the adaptation ladder on; the others run the planner's plan
   for [cache] as it is. *)
let arm ?metrics ?env ~adapt ~planner g cache =
  let engine =
    Ccs.Engine.detached
      (Ccs.Program.create g (Ccs.Codegen.codegen_semantics g))
  in
  let adapt =
    if adapt then Some { Ccs.Adapt.policy = Ccs.Adapt.default_policy; planner }
    else None
  in
  match
    Ccs.Supervisor.run ?metrics ?env ?adapt
      ~epoch_outputs:(outputs / epochs)
      ~prepare:(Ccs.Engine.attach engine)
      ~graph:g ~cache ~plan:(planner cache).Ccs.Adapt.plan ~outputs ()
  with
  | Ok report -> (report, engine)
  | Error e -> failwith (Ccs.Error.to_string e)

let e22 () =
  section "E22-adapt" "adaptive resilience under seeded cache-shrink chaos";
  let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
  let cache = Ccs.Config.cache_config cfg in
  let regressions = ref 0 in
  let total_mismatches = ref 0 in
  let nondeterministic = ref 0 in
  let rows =
    List.map
      (fun app ->
        let entry = Option.get (Ccs_apps.Suite.find app) in
        let g = entry.Ccs_apps.Suite.graph () in
        let planner = Ccs.Auto.adapt_planner g cfg in
        (* The from-scratch arm plans for the post-shrink capacity no
           matter what it is asked for. *)
        let scratch_planner _ =
          planner { cache with Ccs.Cache.size_words = m / divisor }
        in
        (* Undisturbed reference: no chaos, no adaptation — the oracle for
           the sink value streams. *)
        let _, reference = arm ~adapt:false ~planner g cache in
        let stale, _ = arm ~env:(chaos ()) ~adapt:false ~planner g cache in
        let adapted_run () =
          let metrics = Ccs.Metrics.create () in
          let report, engine =
            arm ~metrics ~env:(chaos ()) ~adapt:true ~planner g cache
          in
          (report, engine, Ccs.Metrics.to_json_string metrics)
        in
        let adapted, engine, snapshot = adapted_run () in
        let _, _, snapshot2 = adapted_run () in
        let deterministic = String.equal snapshot snapshot2 in
        if not deterministic then incr nondeterministic;
        let scratch, _ =
          arm ~env:(chaos ()) ~adapt:false ~planner:scratch_planner g cache
        in
        let misses r = r.Ccs.Supervisor.result.Ccs.Runner.misses in
        if misses adapted >= misses stale then incr regressions;
        let mism = Ccs.Engine.mismatches ~reference engine in
        let compared = Ccs.Engine.compared ~reference engine in
        assert (compared > 0);
        total_mismatches := !total_mismatches + mism;
        (* Gap to the from-scratch optimum, in thousandths (an integer, so
           the regression gate treats it as deterministic). *)
        let gap_milli =
          int_of_float
            (Float.round
               (1000. *. ratio (float_of_int (misses adapted - misses scratch))
                  (float_of_int (misses scratch))))
        in
        if Json.enabled () then
          Json.point
            [
              ("kind", Json.String "adaptation");
              ("id", Json.String app);
              ("m", Json.Int m);
              ("b", Json.Int b);
              ("shrink_divisor", Json.Int divisor);
              ("outputs", Json.Int outputs);
              ("stale_misses", Json.Int (misses stale));
              ("adapted_misses", Json.Int (misses adapted));
              ("scratch_misses", Json.Int (misses scratch));
              ("gap_milli", Json.Int gap_milli);
              ( "adaptations",
                Json.Int (List.length adapted.Ccs.Supervisor.adaptations) );
              ("chaos_events", Json.Int adapted.Ccs.Supervisor.chaos_events);
              ("sink_values_compared", Json.Int compared);
              ("output_mismatches", Json.Int mism);
              ("deterministic", Json.Bool deterministic);
            ];
        [
          app;
          string_of_int (misses stale);
          string_of_int (misses adapted);
          string_of_int (misses scratch);
          Printf.sprintf "%+.1f%%" (float_of_int gap_milli /. 10.);
          string_of_int (List.length adapted.Ccs.Supervisor.adaptations);
          string_of_int mism;
          (if deterministic then "yes" else "NO");
        ])
      apps
  in
  Ccs.Table.print
    ~header:
      [
        "app"; "stale"; "adapted"; "scratch"; "gap"; "adapts"; "mism"; "det";
      ]
    ~rows;
  note
    "apps where adaptation failed to beat the stale plan: %d (must be 0); \
     sink-output mismatches after migration: %d (must be 0); \
     nondeterministic apps: %d (must be 0)"
    !regressions !total_mismatches !nondeterministic
