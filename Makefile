# Speedlight build entry points. CI runs the same commands; `make lint`
# is the one-shot local equivalent of the speedlightvet CI gate.

SLVET := $(CURDIR)/bin/speedlightvet

.PHONY: all help build test race lint hotgate vet bench-shards churn figures loc clean

all: build lint hotgate test

help:
	@echo "Speedlight build targets:"
	@echo "  all          build + lint + hotgate + test"
	@echo "  build        go build ./..."
	@echo "  test         go test -shuffle=on ./..."
	@echo "  race         go test -race -p 1 ./... (one package at a time:"
	@echo "               two slow ones side by side pass the 10-minute"
	@echo "               per-package timeout on 2 CPUs)"
	@echo "  lint         build speedlightvet and run the analyzer suite,"
	@echo "               then the test-only-export check"
	@echo "  hotgate      cross-check //speedlight:hotpath functions against"
	@echo "               their //speedlight:allocgate allocation gates"
	@echo "  vet          plain go vet"
	@echo "  bench-shards sharded-engine speedup over serial on identical"
	@echo "               inputs (cmd/bench -workload fabric_sharded)"
	@echo "  churn        seeded churn scenario suite under -race with"
	@echo "               shuffled order, then all four CLI scenarios at"
	@echo "               shards 1/4/8 (CI churn-scenarios gate)"
	@echo "  figures      regenerate every table and figure of the paper's"
	@echo "               evaluation and diff it against the committed"
	@echo "               experiments_output.txt (CI figures gate, ~1 min)"
	@echo "  loc          non-test Go lines per package (non-blank,"
	@echo "               non-comment), the tracked size metric;"
	@echo "               BASE=<rev> adds each package's count at <rev>"
	@echo "  clean        remove bin/"

build:
	go build ./...

test:
	go test -shuffle=on ./...

race:
	go test -race -p 1 ./...

# lint builds the protocol-invariant analyzer suite and runs it over
# every package, _test.go files included, through go vet — the one way
# to run it (given package patterns, the binary prints this line). Then
# it runs the whole-tree check no per-package analyzer can make: every
# export under internal/ is named by a non-test file or carries a
# //speedlight:api reason ("test-only exports: 0 of N ...").
lint: $(SLVET)
	@start=$$(date +%s%N); status=0; \
	go vet -vettool=$(SLVET) ./... || status=$$?; \
	end=$$(date +%s%N); \
	echo "speedlightvet wall-clock: $$(( (end - start) / 1000000 )) ms"; \
	[ "$$status" = 0 ] || exit $$status
	go test -count=1 -run TestNoTestOnlyExports -v ./internal/lint

$(SLVET): FORCE
	go build -o $(SLVET) ./cmd/speedlightvet

# hotgate verifies every //speedlight:hotpath function is named by a
# //speedlight:allocgate annotation on an AllocsPerRun test, and that no
# annotation is stale.
hotgate:
	go run ./cmd/hotgate

vet:
	go vet ./...

# bench-shards runs the benchmark's fabric_sharded workload, which
# clamps its shard count to the machine's CPUs, runs the serial engine
# on identical inputs, checks the two digests equal and reports the
# ratio as sim.shard_speedup (the command CI's sharded-engine step
# runs). The ratio means speedup only with at least as many CPUs as
# shards.
bench-shards:
	go run ./cmd/bench -workload fabric_sharded -trace 1

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

# figures is the output-identity gate for the evaluation harnesses:
# experiments_output.txt is what `cmd/experiments -run all` prints with
# its "(… took …)" wall-clock lines dropped — the only bytes of it that
# are not a function of the seed — so any difference is a behaviour
# change in a figure. After an intended one, regenerate the file with
# the same pipeline and commit it with the change.
figures:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	go run ./cmd/experiments -run all | grep -v ' took ' > "$$tmp" && \
	diff experiments_output.txt "$$tmp" && echo "figures: experiments_output.txt is what the tree prints"

# loc prints non-blank, non-comment lines of non-test Go per package
# and in total (blank lines and // comment lines dropped; the tree has
# no block comments to speak of). ROADMAP tracks this number per
# package; a PR that deletes a mechanism quotes it before and after:
# `make loc BASE=<rev>` prints each package's count at <rev> (from a
# temporary export of that tree) beside the current tree's, with the
# difference.
loc:
	@count() { for d in $$(go list -f '{{if .GoFiles}}{{.Dir}}{{end}}' ./...); do \
	  echo "$$(ls $$d/*.go | grep -v _test.go | xargs cat | grep -cvE '^[[:space:]]*(//|$$)') .$${d#$$PWD}"; \
	done; }; \
	if [ -z "$(BASE)" ]; then \
	  count | awk '{ t += $$1; printf "%7d  %s\n", $$1, $$2 } END { printf "%7d  total\n", t }'; \
	else \
	  tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	  git archive "$(BASE)" | tar -x -C "$$tmp" || exit 1; \
	  (cd "$$tmp" && count) > "$$tmp/loc.base" || exit 1; \
	  count | awk -v base="$(BASE)" ' \
	    NR == FNR { b[$$2] = $$1; order[++n] = $$2; next } \
	    { c[$$2] = $$1; if (!($$2 in b)) order[++n] = $$2 } \
	    END { printf "%7s  %7s  %6s  %s\n", substr(base, 1, 7), "tree", "delta", "package"; \
	      for (i = 1; i <= n; i++) { p = order[i]; tb += b[p]; tc += c[p]; \
	        printf "%7s  %7s  %+6d  %s\n", (p in b) ? b[p] : "-", (p in c) ? c[p] : "-", c[p] - b[p], p } \
	      printf "%7d  %7d  %+6d  total\n", tb, tc, tc - tb }' "$$tmp/loc.base" -; \
	fi

clean:
	rm -rf bin

.PHONY: FORCE
FORCE:
