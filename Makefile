# Convenience targets for the HMPI reproduction.

GO ?= go

.PHONY: all build test race bench bench-smoke profile check lint loc reach verify figures examples trace clean

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

# Reachability of the system: every binary the repository ships (cmd/,
# examples/, bench) built with coverage of the whole module, then driven
# through everything the other targets and ci.yml's e2e job drive —
# examples, figures, verify, trace, lint, kill chaos, link chaos with
# -degrade (drops and a partition; duplicates and delay), the infeasible
# spec (must fail), the daemon from serve to shutdown, bench -smoke — and
# each CLI's remaining modes (hmpirun -trace, hmpitrace links|metrics, pmc
# describe|-args|-dag|-fmt|-gen|-lint=warn, hmpid
# status|result|watch|cancel), all under one GOCOVERDIR. Kill chaos makes
# a few paths host-timing races (a message reaching the mailbox its
# owner's death has just closed: ~40% of `-fig degradation` runs), so that
# figure runs twenty more times and the lists come out the same on every
# run. reach.txt lists every function outside cmd/, examples/ and bench/
# that none of it entered. A function there is MPI-1 or HMPI call-table
# substrate, something only outside input selects (a chaos production, a
# cluster file's load profile, a diagnostic's String), or a failure path
# only tests can drive — or it goes, with its tests (ROADMAP, deletion
# round). reach-blocks.txt looks inside the functions that were entered:
# every coverage block of at least three statements, outside cmd/,
# examples/ and bench/, that no run entered, with the function it lies in
# (the last one `go tool cover -func` starts at or before the block's
# first line).
R := out/reach
reach:
	rm -rf $(R) reach.txt reach-blocks.txt && mkdir -p $(R)/bin $(R)/cov
	$(GO) build -cover -coverpkg=./... -o $(R)/bin/ ./cmd/... ./examples/... ./bench
	export GOCOVERDIR=$(R)/cov PATH="$(R)/bin:$$PATH" && set -e && \
	for e in quickstart em3d matmul jacobi adaptive multiprotocol faulttolerance nestedgroups tcptransport; do $$e >/dev/null; done && \
	hmpibench -fig all -o $(R)/figures >/dev/null && \
	for i in $$(seq 20); do hmpibench -fig degradation >/dev/null; done && \
	hmpirun -app em3d -mode hmpi -tracefile $(R)/em3d.trace -metrics $(R)/em3d.metrics.json && \
	hmpirun -app em3d -p 6 -chaos "2@0.004;4@0.008" -tracefile $(R)/chaos.trace -metrics $(R)/chaos.metrics.json && \
	hmpirun -app em3d -p 6 -nodes 60000 -iters 5 -chaos "link:1-2@0:drop=0.4;part:{1}|{2}@0.002+0.001" -chaos-seed 7 -degrade \
		-tracefile $(R)/netchaos.trace -metrics $(R)/netchaos.metrics.json && \
	hmpirun -app em3d -p 6 -nodes 60000 -iters 5 -chaos "link:2-3@0:dup=0.3,delay=0.001,jitter=0.0005" -chaos-seed 7 -degrade \
		-tracefile $(R)/dupchaos.trace && \
	hmpirun -app matmul -mode hmpi -trace >/dev/null && \
	! timeout 60 hmpirun -app em3d -p 12 && \
	hmpiverify $(R)/em3d.trace $(R)/chaos.trace $(R)/netchaos.trace $(R)/dupchaos.trace && \
	for t in em3d chaos netchaos; do \
		for c in info report critical breakdown links metrics; do hmpitrace $$c $(R)/$$t.trace >/dev/null; done; \
		hmpitrace export -o $(R)/$$t.chrome.json $(R)/$$t.trace; \
	done && \
	hmpivet . && hmpivet -tests -only runtimeclose . && hmpivet -json . >/dev/null && \
	for m in models/*.mpc; do pmc -lint $$m; pmc -fmt $$m >/dev/null; pmc -gen models $$m >/dev/null; done && \
	for m in internal/pmdl/testdata/lint/*.mpc; do pmc -lint=warn $$m >/dev/null; done && \
	pmc -args '[3,10,[100,200,300],[[0,5,0],[5,0,5],[0,5,0]]]' -dag models/em3d.mpc >/dev/null && \
	s="-socket $(R)/hmpid.sock" && { hmpid serve $$s -workers 4 & } && \
	for i in $$(seq 50); do [ -S $(R)/hmpid.sock ] && break; sleep 0.1; done && \
	hmpid submit $$s -wait -app em3d -nodes 40000 -iters 2 >/dev/null && \
	hmpid submit $$s -wait -app jacobi -grid 300 -p 4 -iters 2 -tenant acme >/dev/null && \
	hmpid submit $$s -wait -app matmul -n 24 -r 4 -l 8 >/dev/null && \
	hmpid submit $$s -wait -app em3d -nodes 40000 -iters 2 >/dev/null && \
	for op in status result watch cancel; do hmpid $$op $$s j1 >/dev/null; done && \
	hmpid stats $$s >/dev/null && \
	hmpid shutdown $$s && wait && \
	bench -smoke -out $(R)/bench >/dev/null
	$(GO) tool covdata textfmt -i=$(R)/cov -o $(R)/cover.out
	$(GO) tool cover -func=$(R)/cover.out > $(R)/func.txt
	awk '$$3 == "0.0%" && $$1 !~ /^repro\/(cmd|examples|bench)\//' $(R)/func.txt > reach.txt
	awk 'NR == FNR { split($$1, a, ":"); f[a[1], ++n[a[1]]] = a[2] + 0; fn[a[1], n[a[1]]] = $$2; z[a[1], n[a[1]]] = $$3 == "0.0%"; next } \
		FNR > 1 { s[$$1] = $$2; c[$$1] += $$3 } \
		END { for (b in c) { if (c[b] || s[b] < 3 || b ~ /^repro\/(cmd|examples|bench)\//) continue; \
			split(b, a, ":"); l = a[2] + 0; k = 0; \
			for (i = 1; i <= n[a[1]]; i++) if (f[a[1], i] <= l && (!k || f[a[1], i] > f[a[1], k])) k = i; \
			if (k && !z[a[1], k]) printf "%s\t%s\t%d statements\n", b, fn[a[1], k], s[b] } }' \
		$(R)/func.txt $(R)/cover.out | sort -t: -k1,1 -k2n > reach-blocks.txt
	@cat reach.txt; echo "$$(wc -l < reach.txt) functions no binary reaches (reach.txt)"
	@echo "$$(wc -l < reach-blocks.txt) blocks of 3+ statements no binary enters inside functions it does (reach-blocks.txt)"

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
# sendCommon's copies, the buffer pools), where a copy per message shows.
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
	rm -rf out bench/out test_output.txt bench_output.txt cpu.pprof mem.pprof matmul.cpu.pprof matmul.mem.pprof em3d.cpu.pprof em3d.mem.pprof msg.cpu.pprof msg.mem.pprof em3d.trace em3d.metrics.json em3d.chrome.json verify_em3d.trace verify_chaos.trace hmpivet.json reach.txt reach-blocks.txt
