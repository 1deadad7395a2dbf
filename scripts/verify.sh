#!/usr/bin/env sh
# Tier-1 verify: formatting, build + vet + invariant lint + full tests,
# plus race-checked runs of the concurrent packages (the scheduler, the
# eval matrix runner, the execution backends with their fleet retry/
# requeue machinery, the lock-free metrics registry and flight recorder,
# the persistent result store, the pipeline's probe/tracer paths, and
# elfd's HTTP surface including the 3-worker fleet and
# fleet-observability end-to-end tests).
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "verify: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go build ./...
go vet ./...
go run ./cmd/elflint ./...
# The CFG-based concurrency suite (DESIGN.md §16) gated by name, so a
# regression in one of these checks fails with its name in the log even
# if someone trims the default check list above.
go run ./cmd/elflint -checks goroleak,closecheck,lockheld,atomicmix ./...
# Analyzer self-test: every fixture mini-module must still produce
# findings — a check that stops firing on its own fixture is dead code.
go run ./cmd/elflint -fixtures internal/lint/testdata/src
go test ./...
# Cycle-loop equivalence gates (DESIGN.md §17), named so a hot-loop
# regression fails with its name in the log: the golden Stats of the
# registry × golden-config grid and of every other experiment-registry
# cell; RunContext's window-stall skip against stepping Cycle by hand
# (the registry × golden configs at 5k/12k and 20k/80k, every other
# registry cell, a probed and a traced run, and the fuzz seed corpus of
# workloads, seeds, knobs and small windows), and the skip's reach when
# a ROB, issue queue or load/store queue is full; and the steady-state
# zero-allocation contract, whose memory-bound cases drive RunContext so
# the skip allocates nothing either.
go test -count=1 -run 'TestGoldenStatsEquivalence|TestGoldenExperimentCells' ./internal/eval/ && go test -count=1 -run TestSteadyStateZeroAllocs .
go test -count=1 -run 'TestRunMatchesStepping|FuzzRunMatchesStepping|TestStallWakeCoversEachFullQueue' ./internal/pipeline/
# Per-access table costs and per-event back-end and cache work (DESIGN.md
# §17): each rewritten structure answers as its reference model does (the
# age-permutation BTB banks, the division-indexed caches with separate
# lookup and fill, the counting history fold and three-fold TAGE
# index/tag, the whole-window store and load scans and the squash's full
# rebuild, the per-cycle MSHR compaction), and Validate rejects a BTB
# geometry a set mask cannot index and a back end that cannot run.
go test -count=1 -run 'TestBankMatchesAgeReference|TestBTBMatchesAgeReference|TestCacheMatchesDivisionReference|TestMSHRMatchesPerCycleReference|TestFoldMatchesReference|TestTAGEIndexTagMatchesReference|TestWindowScansMatchReference|TestValidateBTBGeometry|TestValidateBackend' ./internal/btb/ ./internal/cache/ ./internal/bpred/ ./internal/backend/ ./internal/pipeline/
go test -race ./internal/sched/... ./internal/eval/... ./internal/exec/... ./internal/obs/... ./internal/pipeline/... ./internal/store/... ./cmd/elfd/...
# Observability gates, named so a failure is legible on its own: the
# federation merge golden (the fleet /metrics view is a wire format) and
# the 3-worker fleet observability end-to-end, race-checked.
go test -count=1 -run 'TestFleetMetricsGolden|TestHistogramExpositionUnderConcurrentObservers' ./internal/obs/
go test -race -count=1 -run TestFleetObservabilityE2E ./cmd/elfd/
# Persistent-store gates (DESIGN.md §15): the warm-restart end-to-end
# (a Figure 6 grid rerun against the same store dir re-simulates nothing
# and is byte-identical), the one cell path (exec.Local, POST /v1/cells and
# exec.Fleet agree and store byte-identical values under one key) and the
# crash-safety contract (a torn final record is tolerated on open),
# race-checked.
go test -race -count=1 -run TestWarmRestartE2E ./internal/exec/
go test -race -count=1 -run TestOneCellPath ./cmd/elfd/
# One cell path for every command, race-checked: a coalesced job survives one
# of its waiters giving up, a single-node elfd's experiments and run jobs
# reach the store, and one exec.Local running the whole experiment registry
# simulates each distinct cell once, matching the in-process results.
go test -race -count=1 -run 'TestWaiterGivingUpKeepsCoalescedJob|TestSubmitDoesNotJoinCanceledJob|TestSingleNodeExperimentWarmRestart|TestOneCellPath|TestOneLocalRunsEveryExperiment' ./internal/sched/ ./cmd/elfd/ ./internal/exec/
go test -race -count=1 -run 'TestDiskTruncatedTailTolerated|TestDiskCorruptTailChecksum' ./internal/store/
# Concurrency-hygiene gates (DESIGN.md §16): fleet Close must stop its
# health-prober goroutines, and the fleet dispatch path must drain
# response bodies so keep-alive connections are actually reused.
go test -race -count=1 -run 'TestFleetCloseStopsGoroutines|TestFleetPostReusesConnections' ./internal/exec/
# Bounded-retention gates: the span log's ring keeps the last spans in
# finish order and stays race-free under concurrent writers, and the
# scheduler forgets finished jobs beyond its window but never a live one.
go test -race -count=1 -run 'TestSpanLogBound|TestSpanLogConcurrent' ./internal/obs/
go test -race -count=1 -run 'TestFinishedJobsRetiredBeyondWindow|TestFinishedJobsReleaseContext' ./internal/sched/
# One grid path: every registered experiment's cells reach Params.Runner,
# and a coordinator sends a sweep's cells through its backend.
go test -race -count=1 -run TestExperimentRegistry ./internal/eval/
go test -race -count=1 -run TestCoordinatorDispatchesExperimentCells ./cmd/elfd/
# One count per fact, race-checked: every Stats() count of the scheduler,
# the disk store and the fleet workers equals its exposed series, nil
# registries and rings are no-ops, elfd's run counts are per server, a
# metric that several goroutines ask for first at once is one metric, and
# the case-2b overshoot squash is counted where the pipeline performs it.
go test -race -count=1 -run 'TestNilSinksAreNoOps|TestCounterValues|TestConcurrentFirstUse|TestStatsMatchExposedSeries|TestFleetRetrySpansAndEvents|TestDiskMetricsAndEvents|TestRunCountsArePerServer|TestCaseTwoBOvershootSquashCounted' ./internal/obs/ ./internal/sched/ ./internal/exec/ ./internal/store/ ./cmd/elfd/ ./internal/pipeline/
# One scheduler per process, race-checked: a job is counted before its
# waiters are released (run 50 times, since the old race was narrow); a
# job waiting on nested jobs hands its worker back (one worker still
# completes it, two workers still bound four such parents), a burst of such
# jobs starts Workers at a time, a queued job they wait on is not held back,
# and Shutdown drains them; elfd runs jobs, POST /v1/cells and every
# experiment cell on one pool with one cache and one set of counters,
# never refuses an experiment's cells, runs a burst of experiments to
# completion and drains them on shutdown.
go test -race -count=50 -run TestCountedBeforeWaitReturns ./internal/sched/
go test -race -count=1 -run 'TestNestedWaitOnOneWorker|TestNestedWaitKeepsWorkerBound|TestNestedBacklogStartsWorkersAtATime|TestNestedWaitPromotesQueuedJob|TestShutdownDrainsNestedJobs|TestExperimentCellsShareThePool|TestExperimentCellsOutgrowTheQueue|TestExperimentBurstStartsWorkersAtATime|TestShutdownDrainsExperimentJobs|TestPostedCellServesLaterExperiment|TestWorkersBoundEverySimulation' ./internal/sched/ ./cmd/elfd/
# One encoding per cell Result, race-checked: POST /v1/cells answers with
# the bytes the store holds under the cell key (fresh, cache repeat, store
# hit, a non-canonical plant byte for byte), a coordinator stores the bytes
# its worker sent, a cold cell's store Put gets its payload's bytes, the
# one cell path still agrees on key and value, the Fleet quarantines a
# worker whose 200 reply is garbage or runs past its read bound and
# requeues the cell (TestFleetQuarantinesAndRequeues), and elfd answers
# request bodies over its bound with 400 bad_request (TestErrorEnvelope).
go test -race -count=1 -run 'TestOneCellPath|TestCellReplyIsTheStoredBytes|TestCoordinatorKeepsWorkerBytes|TestErrorEnvelope|TestColdCellStoresPayloadBytes|TestFleetQuarantinesAndRequeues' ./cmd/elfd/ ./internal/exec/
# CLI smoke: elfbench has no tests, so this is the gate on its -exp wiring.
go run ./cmd/elfbench -exp all -warmup 1000 -insts 4000 -format csv >/dev/null
# In-process CLI smoke: elfsim, elfview and elfbench -hist have no tests,
# and each measures its machine through eval.Measure. Tiny lengths; the
# trace goes to a temp dir.
echo "verify: in-process CLI smoke (elfsim, elfview, elfbench -hist)"
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/" ./cmd/elfsim ./cmd/elfview ./cmd/elfbench
"$smoke/elfsim" -warmup 1000 -insts 4000 >/dev/null
"$smoke/elfsim" -warmup 1000 -insts 4000 -front uelf -probe >/dev/null
"$smoke/elfsim" -warmup 1000 -insts 4000 -compare >/dev/null
"$smoke/elfsim" -warmup 1000 -insts 4000 -front uelf -trace-out "$smoke/trace.json" >/dev/null
test -s "$smoke/trace.json"
"$smoke/elfview" -skip 1000 -window 48 >/dev/null
"$smoke/elfbench" -hist 641.leela_s:uelf -warmup 1000 -insts 4000 >/dev/null
echo "verify: OK"
