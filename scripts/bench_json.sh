#!/bin/sh
# bench_json.sh regenerates BENCH_10.json: the machine-readable record
# of the per-pair synchronization work (PR 10 — per-pair lookahead
# clocks, lock-free cross-shard rings, deserialized global domain). It
# runs the gated hot-path benchmarks (-benchmem, including the
# trace-overhead pair EmulationThroughputSnapshots/
# EmulationThroughputTraced), the snapshot history-store ingest/query
# benchmarks on the 1024-port fabric, and the serial-vs-sharded scaling
# benchmarks, and emits one JSON document with ns/op, allocs/op,
# registers/sec, queries/sec and events/sec, alongside the frozen
# pre-PR baseline (BENCH_7.json's after-column) for the benchmarks that
# existed before this PR. The document records the CPU count of the
# machine that produced it: shard-scaling ratios are only meaningful
# when cpus >= the shard count.
#
# Usage: scripts/bench_json.sh [output.json]   (default BENCH_10.json)
set -eu

out=${1:-BENCH_10.json}

hot=$(go test -run '^$' \
  -bench 'BenchmarkUnitOnPacket$|BenchmarkHeaderCodec$|BenchmarkTelemetryHotPath$|BenchmarkEmulationThroughput$|BenchmarkSnapshotIngestHot$' \
  -benchmem -benchtime 1s -timeout 30m .)
# The trace-overhead pair runs at a fixed iteration count in fresh
# alternating processes and keeps each benchmark's best events/sec:
# run-to-run scheduler noise (~8%) and in-process heap-state bias
# against the later benchmark would otherwise swamp the few ns per
# event of stamp overhead being recorded.
go test -run '^$' -bench 'BenchmarkEmulationThroughputTraced$' -c -o /tmp/speedlight-bench.test .
tracedraw=""
for i in 1 2 3 4 5 6 7 8; do
  tracedraw="$tracedraw
$(/tmp/speedlight-bench.test -test.run '^$' -test.bench 'BenchmarkEmulationThroughputTraced$' -test.benchtime 500000x | grep ^Benchmark)
$(/tmp/speedlight-bench.test -test.run '^$' -test.bench 'BenchmarkEmulationThroughputSnapshots$' -test.benchtime 500000x | grep ^Benchmark)"
done
rm -f /tmp/speedlight-bench.test
trace=$(printf '%s\n' "$tracedraw" |
  awk '/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 2; i < NF; i++) if ($(i+1) == "events/sec" && $i > best[name]) best[name] = $i
  }
  END { for (n in best) printf "%sBest %s events/sec\n", n, best[n] }')
store=$(go test -run '^$' \
  -bench 'BenchmarkStoreIngest$|BenchmarkSnapshotQuery$' \
  -benchmem -benchtime 1s -timeout 30m .)
shards=$(go test -run '^$' -bench BenchmarkShardScaling -benchtime 2x -timeout 30m .)

printf '%s\n%s\n%s\n%s\n' "$hot" "$trace" "$store" "$shards" | awk \
  -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v cpus="$(nproc)" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip -GOMAXPROCS suffix
    sub(/^Benchmark/, "", name)
    ns = allocs = bytes = eps = regs = qps = "null"
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")         ns = $i
        if ($(i+1) == "allocs/op")     allocs = $i
        if ($(i+1) == "B/op")          bytes = $i
        if ($(i+1) == "events/sec")    eps = $i
        if ($(i+1) == "registers/sec") regs = $i
        if ($(i+1) == "queries/sec")   qps = $i
    }
    order[++n] = name
    line[name] = sprintf("{\"ns_per_op\": %s, \"allocs_per_op\": %s, \"bytes_per_op\": %s, \"events_per_sec\": %s, \"registers_per_sec\": %s, \"queries_per_sec\": %s}",
                         ns, allocs, bytes, eps, regs, qps)
}
END {
    printf "{\n"
    printf "  \"pr\": 10,\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"cpus\": %s,\n", cpus
    printf "  \"note\": \"before = PR 7 numbers (BENCH_7.json after-column), recorded on the barrier-round engine with the observer on the serialized global domain. PR 10 replaces fleet-wide barrier rounds with per-pair channel clocks and SPSC ring handoff, and moves snapshot ingest / invariants / epoch stamping into an observer shard domain. ShardScaling ratios are meaningful only when cpus >= shard count: on a single-CPU machine shards time-share one core and the sharded rows measure synchronization overhead, not speedup.\",\n"
    printf "  \"before\": {\n"
    printf "    \"UnitOnPacket\": {\"ns_per_op\": 34.91, \"allocs_per_op\": 0, \"bytes_per_op\": 0},\n"
    printf "    \"HeaderCodec\": {\"ns_per_op\": 1.2, \"allocs_per_op\": 0, \"bytes_per_op\": 0},\n"
    printf "    \"TelemetryHotPath\": {\"ns_per_op\": 36.58, \"allocs_per_op\": 0, \"bytes_per_op\": 0},\n"
    printf "    \"EmulationThroughput\": {\"ns_per_op\": 1606, \"allocs_per_op\": 0, \"bytes_per_op\": 0, \"events_per_sec\": 4334598},\n"
    printf "    \"SnapshotIngestHot\": {\"ns_per_op\": 56.39, \"allocs_per_op\": 0, \"bytes_per_op\": 42},\n"
    printf "    \"EmulationThroughputSnapshotsBest\": {\"events_per_sec\": 5897557},\n"
    printf "    \"EmulationThroughputTracedBest\": {\"events_per_sec\": 5871174},\n"
    printf "    \"StoreIngest\": {\"ns_per_op\": 325382, \"allocs_per_op\": 9, \"bytes_per_op\": 42816, \"registers_per_sec\": 3147074},\n"
    printf "    \"SnapshotQuery\": {\"ns_per_op\": 35324, \"allocs_per_op\": 2, \"bytes_per_op\": 18671, \"queries_per_sec\": 28309},\n"
    printf "    \"ShardScaling/leafspine8x4/shards0\": {\"events_per_sec\": 3124343},\n"
    printf "    \"ShardScaling/leafspine8x4/shards2\": {\"events_per_sec\": 2976185},\n"
    printf "    \"ShardScaling/leafspine8x4/shards4\": {\"events_per_sec\": 3529779},\n"
    printf "    \"ShardScaling/leafspine8x4/shards8\": {\"events_per_sec\": 3420281},\n"
    printf "    \"ShardScaling/fattree4/shards0\": {\"events_per_sec\": 2955000},\n"
    printf "    \"ShardScaling/fattree4/shards2\": {\"events_per_sec\": 3146862},\n"
    printf "    \"ShardScaling/fattree4/shards4\": {\"events_per_sec\": 3391900},\n"
    printf "    \"ShardScaling/fattree4/shards8\": {\"events_per_sec\": 3707868}\n"
    printf "  },\n"
    printf "  \"after\": {\n"
    for (i = 1; i <= n; i++) {
        printf "    \"%s\": %s%s\n", order[i], line[order[i]], (i < n ? "," : "")
    }
    printf "  }\n"
    printf "}\n"
}
' > "$out"

echo "wrote $out"
