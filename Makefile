# Speedlight build entry points. CI runs the same commands; `make lint`
# is the one-shot local equivalent of the speedlightvet CI gate.

SLVET := $(CURDIR)/bin/speedlightvet

.PHONY: all help build test race lint hotgate vet bench-shards bench-json churn clean

all: build lint hotgate test

help:
	@echo "Speedlight build targets:"
	@echo "  all          build + lint + hotgate + test"
	@echo "  build        go build ./..."
	@echo "  test         go test -shuffle=on ./..."
	@echo "  race         go test -race ./..."
	@echo "  lint         build speedlightvet and run the analyzer suite"
	@echo "  hotgate      cross-check //speedlight:hotpath functions against"
	@echo "               their //speedlight:allocgate allocation gates"
	@echo "  vet          plain go vet"
	@echo "  bench-shards serial-vs-sharded scaling benchmarks"
	@echo "  bench-json   regenerate BENCH_10.json (hot-path allocs/op,"
	@echo "               trace-overhead pair, snapstore ingest/query"
	@echo "               rates, events/sec, with the frozen pre-PR"
	@echo "               baseline)"
	@echo "  churn        seeded churn scenario suite under -race with"
	@echo "               shuffled order, then all four CLI scenarios at"
	@echo "               shards 1/4/8 (CI churn-scenarios gate)"
	@echo "  clean        remove bin/"

build:
	go build ./...

test:
	go test -shuffle=on ./...

race:
	go test -race ./...

# lint builds the protocol-invariant analyzer suite and runs it over
# every package through the go vet driver. Standalone invocation
# (`bin/speedlightvet ./...`) covers the same set including _test.go
# files and adds -format=github|sarif for CI annotation output.
lint: $(SLVET)
	@start=$$(date +%s%N); status=0; \
	go vet -vettool=$(SLVET) ./... || status=$$?; \
	end=$$(date +%s%N); \
	echo "speedlightvet wall-clock: $$(( (end - start) / 1000000 )) ms"; \
	exit $$status

$(SLVET): FORCE
	go build -o $(SLVET) ./cmd/speedlightvet

# hotgate verifies every //speedlight:hotpath function is named by a
# //speedlight:allocgate annotation on an AllocsPerRun test or 0-alloc
# benchmark, and that no annotation is stale.
hotgate:
	go run ./cmd/hotgate

vet:
	go vet ./...

# bench-shards runs the serial-vs-sharded scaling benchmarks on both
# the fat-tree and leaf-spine fabrics. The ratios mean speedup only on
# a machine with at least as many CPUs as shards.
bench-shards:
	go test -run '^$$' -bench BenchmarkShardScaling -benchtime 5x -timeout 30m .

# churn is the churn-scenarios CI gate: the seeded scenario suite
# (rolling upgrade, link-flap storm, partition-and-heal, provisioning
# ramp) plus the reconciliation-controller unit tests under the race
# detector with shuffled order — each equivalence test internally diffs
# serial against shards {1,2,4,8} — then every CLI scenario end to end
# at shards 1, 4 and 8, failing on any silent disagreement.
churn:
	go test -race -shuffle=on -run 'TestChurn|TestReconcile|TestScenario|TestClassify|TestNewAdopts|TestPropertyRandomizedEquivalence' \
		./internal/emunet ./internal/reconcile
	@for s in 1 4 8; do \
	  for m in rolling-upgrade link-flap-storm partition-heal provisioning-ramp; do \
	    echo "== churn $$m shards=$$s"; \
	    out=$$(go run ./cmd/speedlight -leaves 4 -spines 2 -hosts 2 -snapshots 8 \
	      -channel-state -shards $$s -churn $$m) || exit 1; \
	    echo "$$out" | grep "churn scenario" || exit 1; \
	  done; \
	done

# bench-json reruns the hot-path, trace-overhead, snapstore and scaling
# benchmarks and rewrites BENCH_10.json (committed) with after-numbers
# from this machine next to the frozen pre-PR baseline. CI uploads the
# file as an artifact and gates allocs/op == 0 on the hot-path
# benchmarks plus at most 12 ns per event added by the journal.
bench-json:
	sh scripts/bench_json.sh BENCH_10.json

clean:
	rm -rf bin

.PHONY: FORCE
FORCE:
