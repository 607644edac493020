(** Scheduling as a service: a long-running daemon ([ccsched serve]) that
    accepts SDF graph specs over a Unix/TCP socket ({!Protocol}), runs the
    full validation → rate analysis → partitioning → plan pipeline, and
    answers with the plan plus its Lemma-4/8 predicted miss bounds.  The
    NP-hard partitioning step is memoised in a persistent on-disk plan
    cache ({!Plan_cache}) keyed by the composite {!Ccs.Plan_key} — graph
    digest, cache configuration, pinned capacities, planner version — so
    repeat requests are answered from disk.  Request/cache/error counters
    and latency histograms are published per worker and merged for
    Prometheus scrapes ({!Server.scrape}, through {!Ccs.Metrics.merge_json}). *)

module Protocol = Protocol
module Lru_index = Lru_index
module Plan_cache = Plan_cache
module Server = Server
