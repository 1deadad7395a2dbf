.PHONY: verify test race lint bench fmt

# Tier-1 verify recipe (see ROADMAP.md): gofmt cleanliness, build, vet,
# invariant lint, tests, and race-checked tests for the concurrent
# packages.
verify:
	./scripts/verify.sh

test:
	go test ./...

race:
	go test -race ./internal/sched/... ./internal/eval/... ./internal/exec/... ./internal/obs/... ./internal/pipeline/... ./internal/store/... ./cmd/elfd/...

# lint runs elflint, the module's invariant analyzer (determinism,
# layering, probe gating, context discipline, panic policy, and the
# CFG-based concurrency suite). -timing prints per-check wall-clock to
# stderr so a check that quietly turns quadratic is visible. See
# DESIGN.md §12/§16 and `go run ./cmd/elflint -list`.
lint:
	go run ./cmd/elflint -timing ./...

fmt:
	gofmt -w .

bench:
	go test -bench=. -benchmem
