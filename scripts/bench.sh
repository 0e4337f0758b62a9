#!/bin/sh
# Performance benchmarks for the training and prediction hot paths.
# Runs the kernel, train-step, beam-search, evaluation, and serving
# benchmarks and records the parsed results as JSON at the repo root:
#
#   BENCH_train.json    BenchmarkMatmulKernels, BenchmarkBandKernel,
#                       BenchmarkTrainStep{,Transformer}
#   BENCH_predict.json  BenchmarkPredict{,Sequential,Batched},
#                       BenchmarkEvalThroughput,
#                       BenchmarkServerPredictConcurrent
#   BENCH_infer.json    BenchmarkF32Kernels (the f32 NN matmul,
#                       asm vs pure-Go), BenchmarkLSTMCell (the fused LSTM
#                       cell vs the op composition it replaced,
#                       forward and forward+backward),
#                       BenchmarkPredictF32 (end-to-end full
#                       vs f32 beam decode), BenchmarkPredictSharedAttn
#                       (shared-encoder attention working set across
#                       beam widths), BenchmarkPredictTransformer
#                       (decode behind the Transformer encoder, full vs
#                       f32), BenchmarkQuantizedLoad (quantized-load
#                       latency + resident weight bytes)
#   BENCH_encoders.md   BiLSTM vs Transformer trained with identical
#                       flags/seed/budget: wall-clock training time and
#                       external-eval accuracy (the EXPERIMENTS.md
#                       architecture-comparison table)
#
# Usage: scripts/bench.sh
#
# BenchmarkEvalThroughput trains a model first; SNOWWHITE_BENCH_PACKAGES
# and SNOWWHITE_BENCH_EPOCHS (exported below unless already set) keep
# that under a few minutes on one CPU — raise them for stabler numbers.
set -eu
cd "$(dirname "$0")/.."

: "${SNOWWHITE_BENCH_PACKAGES:=60}"
: "${SNOWWHITE_BENCH_EPOCHS:=3}"
export SNOWWHITE_BENCH_PACKAGES SNOWWHITE_BENCH_EPOCHS

# to_json turns `go test -bench` output into a JSON document: one entry
# per benchmark line, with ns/op and every custom metric keyed by unit.
# Repeated names (the testing package suffixes them #01, #02, ...) are
# dropped: a sub-benchmark registered twice measures the same thing, and
# a duplicate key would poison downstream comparisons.
to_json() {
	awk '
	BEGIN { print "{"; print "  \"benchmarks\": [" ; n = 0 }
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^Benchmark/ {
		base = $1; sub(/#[0-9]+$/, "", base)
		if (seen[base]++) next
		if (n++) printf ",\n"
		printf "    {\"name\": \"%s\", \"iterations\": %s", $1, $2
		for (i = 3; i + 1 <= NF; i += 2)
			printf ", \"%s\": %s", $(i + 1), $i
		printf "}"
	}
	END {
		if (n) printf "\n"
		print "  ],"
		printf "  \"cpu\": \"%s\",\n", cpu
		printf "  \"benchmarks_run\": %d\n", n
		print "}"
	}'
}

echo "== kernel + train-step benchmarks (BENCH_train.json) =="
{
	go test -run '^$' -bench 'BenchmarkMatmulKernels|BenchmarkBandKernel' -benchmem ./internal/ad
	go test -run '^$' -bench 'BenchmarkTrainStep' ./internal/seq2seq
} | tee /dev/stderr | to_json >BENCH_train.json

echo "== predict + eval + serving benchmarks (BENCH_predict.json) =="
{
	go test -run '^$' -bench 'BenchmarkPredict$|BenchmarkPredictSequential$|BenchmarkPredictBatched$' \
		-timeout 30m ./internal/seq2seq
	go test -run '^$' -bench 'BenchmarkEvalThroughput|BenchmarkServerPredictConcurrent' -timeout 30m .
} | tee /dev/stderr | to_json >BENCH_predict.json

echo "== serve load: cold vs warm persistent cache (BENCH_predict.json \"serve\" key) =="
# End-to-end serving latency under open-loop load, measured twice over
# the same persistent cache file: a cold start (empty cache; the sweep's
# first decodes pay full inference) and a warm restart (the compacted
# snapshot replays, so the same requests answer from cache). The cold vs
# warm p50/p99 gap and the warm hit rate land in BENCH_predict.json next
# to the microbenchmarks.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"; [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
go build -o "$tmp/snowwhite" ./cmd/snowwhite
"$tmp/snowwhite" train -packages 6 -epochs 1 -seed 1 -j 2 -checkpoint none \
	-out "$tmp/model.bin" 2>/dev/null
serve_addr=127.0.0.1:18652
bench_wasm=internal/ingest/testdata/math_debug.wasm
start_serve() {
	"$tmp/snowwhite" serve -model "$tmp/model.bin" -addr "$serve_addr" \
		-cache-file "$tmp/cache.jsonl" 2>>"$tmp/serve.log" &
	serve_pid=$!
	i=0
	until "$tmp/snowwhite" bench-serve -addr "$serve_addr" -ready >/dev/null 2>&1; do
		i=$((i+1))
		[ "$i" -lt 150 ] || { echo "serve did not become ready"; cat "$tmp/serve.log"; exit 1; }
		sleep 0.2
	done
}
stop_serve() {
	kill -TERM "$serve_pid"
	wait "$serve_pid" || true
	serve_pid=
}
start_serve
"$tmp/snowwhite" bench-serve -addr "$serve_addr" -file "$bench_wasm" \
	-label cold -sweep "5,20" -duration 5s -max-failures 0 \
	-merge-into BENCH_predict.json >/dev/null
stop_serve # graceful stop compacts the cache snapshot
start_serve # warm start replays it
"$tmp/snowwhite" bench-serve -addr "$serve_addr" -file "$bench_wasm" \
	-label warm -sweep "5,20" -duration 5s -max-failures 0 \
	-merge-into BENCH_predict.json >/dev/null
stop_serve

echo "== inference f32 + shared-attention benchmarks (BENCH_infer.json) =="
{
	go test -run '^$' -bench 'BenchmarkF32Kernels|BenchmarkLSTMCell' ./internal/ad
	go test -run '^$' \
		-bench 'BenchmarkPredictF32|BenchmarkPredictSharedAttn|BenchmarkPredictTransformer' \
		-timeout 30m ./internal/seq2seq
	go test -run '^$' -bench 'BenchmarkQuantizedLoad' -timeout 30m ./internal/core
} | tee /dev/stderr | to_json >BENCH_infer.json

echo "== encoder comparison: BiLSTM vs Transformer (BENCH_encoders.md) =="
# The controlled accuracy-vs-throughput comparison: both architectures
# trained on the same corpus with identical flags, seed, and epoch
# budget, then scored on the checked-in external eval binaries. Training
# time is wall clock (this box, one process); accuracy is the aggregate
# eval block of `snowwhite ingest -eval`. The table lands in
# BENCH_encoders.md, which EXPERIMENTS.md's architecture section quotes.
eval_row() { # $1 = ingest -eval report; prints "n top1 top5 tps"
	# The file's last eval block is the cross-binary aggregate.
	awk -F': ' '
		/"labeled_elements"/ { n = $2 + 0 }
		/"top1"/ { t1 = $2 + 0 }
		/"top5"/ { t5 = $2 + 0 }
		/"tps"/  { tp = $2 + 0 }
		END { printf "%d %.3f %.3f %.3f", n, t1, t5, tp }
	' "$1"
}
train_one() { # $1 = encoder, $2 = model out; prints wall-clock seconds
	t0=$(date +%s.%N)
	"$tmp/snowwhite" train -packages "$SNOWWHITE_BENCH_PACKAGES" \
		-epochs "$SNOWWHITE_BENCH_EPOCHS" -seed 1 -j 2 -encoder "$1" \
		-checkpoint none -out "$2" 2>/dev/null
	t1=$(date +%s.%N)
	awk "BEGIN{printf \"%.1f\", $t1 - $t0}"
}
bi_secs=$(train_one bilstm "$tmp/cmp_bilstm.bin")
tf_secs=$(train_one transformer "$tmp/cmp_transformer.bin")
"$tmp/snowwhite" ingest -model "$tmp/cmp_bilstm.bin" -dir internal/ingest/testdata \
	-eval -k 5 -j 2 -out "$tmp/cmp_bilstm.json" 2>/dev/null
"$tmp/snowwhite" ingest -model "$tmp/cmp_transformer.bin" -dir internal/ingest/testdata \
	-eval -k 5 -j 2 -out "$tmp/cmp_transformer.json" 2>/dev/null
set -- $(eval_row "$tmp/cmp_bilstm.json")
bi_n=$1 bi_t1=$2 bi_t5=$3 bi_tps=$4
set -- $(eval_row "$tmp/cmp_transformer.json")
tf_n=$1 tf_t1=$2 tf_t5=$3 tf_tps=$4
{
	echo "<!-- generated by scripts/bench.sh: encoder comparison at"
	echo "     -packages $SNOWWHITE_BENCH_PACKAGES -epochs $SNOWWHITE_BENCH_EPOCHS -seed 1 -j 2,"
	echo "     external eval on internal/ingest/testdata ($bi_n labeled elements) -->"
	echo
	echo "| encoder | train wall-clock | eval top-1 | eval top-5 | eval TPS |"
	echo "|---|---|---|---|---|"
	echo "| bilstm | ${bi_secs}s | $bi_t1 | $bi_t5 | $bi_tps |"
	echo "| transformer | ${tf_secs}s | $tf_t1 | $tf_t5 | $tf_tps |"
} | tee BENCH_encoders.md

echo "bench: wrote BENCH_train.json BENCH_predict.json BENCH_infer.json BENCH_encoders.md"
