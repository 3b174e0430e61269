# Convenience targets for the HMPI reproduction.

GO ?= go

.PHONY: all build test race bench bench-smoke profile check lint loc verify figures examples trace clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# The CI gate: vet, static analysis, build, and the race-enabled suite.
# -short trims the golden collective matrix to the payloads the race
# detector gets through in seconds (internal/mpi/golden_test.go); the only
# other test it skips, the benchmark's smoke run, is run after it. The
# pmdl concurrency tests (one Model, one Instance, many goroutines) repeat:
# a race needs the schedule that shows it.
check: lint
	$(GO) build ./...
	$(GO) test -race -short ./...
	$(GO) test -race -count=5 -run 'Concurrent|SharedAcrossGoroutines' ./internal/pmdl
	$(GO) test -race -run TestSmoke ./bench

# Static analysis: gofmt with nothing left to rewrite, go vet, the HMPI
# analyzers (hmpivet) over the tree — a directory walk sweeps every
# shipped .mpc model too — runtimeclose over the tests as well (every
# hmpi.New in a test reaches Finalize; the other analyzers' test findings
# are deliberate contract violations under test), the PMDL lints, and
# staticcheck when the binary is on PATH (CI installs a pinned version;
# locally it is optional so an offline checkout still gates on the in-tree
# checks).
lint:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) run ./cmd/hmpivet .
	$(GO) run ./cmd/hmpivet -tests -only runtimeclose .
	for m in models/*.mpc; do $(GO) run ./cmd/pmc -lint $$m || exit 1; done
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Size of the system: non-test Go lines per package (testdata excluded),
# then the total, then the selection path (hmpi + mapper + estimator) that
# ROADMAP's one-memo item is judged on. Simplicity PRs quote these numbers.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t; \
		printf "%7d hmpi + mapper + estimator\n", n["./internal/hmpi"] + n["./internal/mapper"] + n["./internal/estimator"] }'

# Dynamic verification: record fresh traces — a clean EM3D run on the
# paper's network and a seeded self-healing chaos run — and replay both
# through hmpiverify. Any semantic violation (deadlock, collective
# divergence, leaked group, phantom message) fails the target.
verify:
	$(GO) run ./cmd/hmpirun -app em3d -mode hmpi -tracefile verify_em3d.trace
	$(GO) run ./cmd/hmpirun -app em3d -p 6 -chaos "2@0.004;4@0.008" -tracefile verify_chaos.trace
	$(GO) run ./cmd/hmpiverify verify_em3d.trace verify_chaos.trace
	rm -f verify_em3d.trace verify_chaos.trace

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# The one benchmark harness (bench/README.md): five workloads, seven
# end-to-end metrics each, per-layer rows; bench-smoke is all of it at a
# hundredth of the length.
bench:
	$(GO) run ./bench

bench-smoke:
	$(GO) run ./bench -smoke

# Four profiles, one per place the host time of a run can go; inspect
# with `go tool pprof`. cpu/mem: the group-selection sweep (mapper and
# estimator). matmul.*: the paper-size block-size sweep, one HMPI_Timeof
# per candidate (model instantiation, task-graph construction, selection).
# em3d.*: the paper-size EM3D sweep, generation plus timing-only runs — the
# application side, where an allocation per field node shows first.
# msg.*: the collective sweep on live worlds — the message path (mailbox,
# sendCore's copies, the buffer pools), where a copy per message shows.
profile:
	$(GO) run ./cmd/hmpibench -fig search -cpuprofile cpu.pprof -memprofile mem.pprof
	$(GO) run ./cmd/hmpibench -fig 11a -cpuprofile matmul.cpu.pprof -memprofile matmul.mem.pprof
	$(GO) run ./cmd/hmpibench -fig 9a -cpuprofile em3d.cpu.pprof -memprofile em3d.mem.pprof
	$(GO) run ./cmd/hmpibench -fig coll -cpuprofile msg.cpu.pprof -memprofile msg.mem.pprof

# Regenerate every figure/table of EXPERIMENTS.md (writes CSVs to out/).
figures:
	$(GO) run ./cmd/hmpibench -fig all -o out

# Record an EM3D run and analyse it: per-phase predicted-vs-observed,
# critical path, per-rank breakdown, and a Perfetto-loadable export.
trace:
	$(GO) run ./cmd/hmpirun -app em3d -mode hmpi -tracefile em3d.trace -metrics em3d.metrics.json
	$(GO) run ./cmd/hmpitrace info em3d.trace
	$(GO) run ./cmd/hmpitrace report em3d.trace
	$(GO) run ./cmd/hmpitrace critical em3d.trace
	$(GO) run ./cmd/hmpitrace breakdown em3d.trace
	$(GO) run ./cmd/hmpitrace export -o em3d.chrome.json em3d.trace
	@echo "wrote em3d.trace, em3d.metrics.json, em3d.chrome.json (load in ui.perfetto.dev)"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/em3d
	$(GO) run ./examples/matmul
	$(GO) run ./examples/jacobi
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/multiprotocol
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/nestedgroups
	$(GO) run ./examples/tcptransport

clean:
	rm -rf out bench/out test_output.txt bench_output.txt cpu.pprof mem.pprof matmul.cpu.pprof matmul.mem.pprof em3d.cpu.pprof em3d.mem.pprof msg.cpu.pprof msg.mem.pprof em3d.trace em3d.metrics.json em3d.chrome.json verify_em3d.trace verify_chaos.trace hmpivet.json
