// Package scenariotest is the open-loop traffic determinism oracle
// (`make openloop-oracle`). It re-proves, for every built-in scenario and
// every planner, that same-seed scenario replays are bitwise repeatable and
// that the entire report — offered load, goodput, sojourn histograms, queue
// depths, planner epochs, trace digests — is invariant across fault-pipeline
// worker counts {1, 2, 4, 8} at the oracle's pinned configurations (the
// core contract guarantees the logical fields at any configuration; the
// virtual-time fields can drift by a store batch's amortization once
// re-sharding regroups MultiGet batches — see core/shardtest). It also
// holds the engine's queueing to theory: on a stable constant-rate Poisson
// sweep, the queue depth arrivals see equals λ·W (Little's law with PASTA).
package scenariotest
