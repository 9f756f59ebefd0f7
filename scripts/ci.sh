#!/usr/bin/env bash
# CI gate: format, build, test, lint. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> benchmark tests (smoke runs, BENCHMARK.json contract)"
# The benchmark is a package of its own, outside the workspace, so the
# workspace test run above does not reach it.
cargo test --release --offline --manifest-path bench_e2e/Cargo.toml

echo "==> benchmark default-seed checks (committed z hashes)"
# One round of every workload at the seed whose assignment hash is
# committed in bench_e2e/src/lib.rs: a host-path change that moves a chain
# fails here, not only in bench_e2e/run_all.py. The workload set is the one
# BENCHMARK.json declares.
workloads="$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for workload in $workloads; do
    result="$(cargo run --release --offline --quiet --manifest-path bench_e2e/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0 --trace 0 | tail -n 1)"
    python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result" \
        || { echo "bench_e2e $workload: default-seed check failed"; exit 1; }
done

echo "==> inference smoke test"
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
cargo run --release -q -p culda-cli -- generate --preset tiny --seed 3 \
    --docword "$smoke/c.dw" --vocab "$smoke/c.v"
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/c.phi" --topics 8 --iters 3 \
    --score-every 0 --platform maxwell
# Every document draws from its own RNG stream, so the worker count and
# the micro-batch size must not change θ̂ or any perplexity.
for shape in "1 64" "2 16"; do
    read -r workers batch <<< "$shape"
    cargo run --release -q -p culda-cli -- infer --model "$smoke/c.phi" \
        --docword "$smoke/c.dw" --vocab "$smoke/c.v" --workers "$workers" \
        --batch-size "$batch" --burnin 3 --samples 2 \
        --out "$smoke/theta-$workers-$batch.json"
done
python3 -c 'import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:])
keys = ("theta", "perplexity", "perplexity_by_sweep")
sys.exit(0 if a["theta"] and all(a[k] == b[k] for k in keys) else 1)' \
    "$smoke/theta-1-64.json" "$smoke/theta-2-16.json" \
    || { echo "infer: results depend on --workers/--batch-size"; exit 1; }
# A sweep count past u32 is a usage error (exit 2), not one wrapped sweep.
status=0
cargo run --release -q -p culda-cli -- infer --model "$smoke/c.phi" \
    --docword "$smoke/c.dw" --vocab "$smoke/c.v" --burnin 4294967295 \
    --samples 1 --out "$smoke/overflow.json" 2> /dev/null || status=$?
test "$status" -eq 2 || { echo "infer: overflowing --burnin exited $status, not 2"; exit 1; }

echo "==> fault-injection smoke test"
# A transient launch fault mid-training must recover (exit 0), report
# recovery metrics, and train the exact same model as the clean run.
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/f.phi" --topics 8 --iters 3 \
    --score-every 0 --platform maxwell --fault-plan launch:0:1 \
    | tee "$smoke/fault.log"
grep -q 'recovery: 1 fault(s) injected, 1 retry(s)' "$smoke/fault.log"
cmp "$smoke/c.phi" "$smoke/f.phi"

echo "==> mode-matrix smoke tests (sync, sampling, draw)"
# Every phi sync strategy, p* fill path and p1 draw engine must train the
# bit-identical model; only modelled time and bytes may differ. Each row
# names the flag, the topic count and the modes, the first being the one
# the others are compared with. At K = 8 every index tree has one level;
# the sampling and draw matrices also run at K = 4096, where the p* tree
# has two upper levels.
while read -r flag topics modes; do
    reference=""
    for mode in $modes; do
        model="$smoke/$flag-$topics-$mode.phi"
        cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
            --vocab "$smoke/c.v" --model "$model" --topics "$topics" \
            --iters 3 --score-every 0 --platform pascal --gpus 2 \
            "--$flag" "$mode" < /dev/null
        if [ -z "$reference" ]; then
            reference="$model"
        else
            cmp "$reference" "$model"
        fi
    done
done <<'MATRIX'
sync-mode 8 dense-tree dense-ring delta auto
sampling-mode 8 dense sparse auto
sampling-mode 4096 dense sparse auto
draw-mode 8 tree butterfly auto
draw-mode 4096 tree butterfly auto
MATRIX

echo "==> multi-node smoke test"
# A 2-node cluster run must train the bit-identical model to the 1-node
# run of the same configuration (the dense-tree model from above).
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/n.phi" --topics 8 --iters 3 \
    --score-every 0 --platform pascal --gpus 2 --nodes 2 \
    | tee "$smoke/nodes.log"
grep -q 'cluster: 2 node(s)' "$smoke/nodes.log"
cmp "$smoke/sync-mode-8-dense-tree.phi" "$smoke/n.phi"
# Save-state → resume at --nodes 2 continues that run: 2 + 1 iterations
# write the same model as the 3 straight ones.
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/nr.phi" --topics 8 --iters 2 \
    --score-every 0 --platform pascal --gpus 2 --nodes 2 \
    --save-state "$smoke/n.state"
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/nr.phi" --topics 8 --iters 1 \
    --score-every 0 --platform pascal --gpus 2 --nodes 2 \
    --resume "$smoke/n.state"
cmp "$smoke/n.phi" "$smoke/nr.phi"

echo "==> telemetry smoke test (eval, snapshots, report, openmetrics)"
# A telemetry-laden run must stream parseable snapshots, export a lintable
# OpenMetrics exposition, render a report — and train the bit-identical
# model to the plain run above.
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/t.phi" --topics 8 --iters 3 \
    --score-every 0 --platform maxwell --eval-every 2 --eval-fraction 0.2 \
    --snapshots "$smoke/run.jsonl" --openmetrics "$smoke/metrics.om"
cmp "$smoke/c.phi" "$smoke/t.phi"
test -s "$smoke/run.jsonl"
grep -q '# EOF' "$smoke/metrics.om"
# `report` re-parses both artifacts (the OpenMetrics lint runs inside it).
cargo run --release -q -p culda-cli -- report --snapshots "$smoke/run.jsonl" \
    --openmetrics "$smoke/metrics.om" --out "$smoke/report.md"
grep -q '# culda run report' "$smoke/report.md"
grep -q '## Held-out evaluation' "$smoke/report.md"
grep -q 'parses back cleanly' "$smoke/report.md"

echo "==> serving smoke test (registry, hot-swap, load report)"
# Two checkpoint versions behind the control plane: the load run must
# complete everything it offers, and the mid-run blue/green swap must
# drain cleanly (dropped == 0) while moving v1 -> v2.
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/green.phi" --topics 8 --iters 5 \
    --score-every 0 --platform maxwell
cargo run --release -q -p culda-cli -- serve --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/c.phi" --model-b "$smoke/green.phi" \
    --pools 2 --pool-workers 1 --rate 300 --duration 0.2 --swap-at 0.1 \
    --out "$smoke/serving.json" | tee "$smoke/serve.log"
grep -q 'zero downtime' "$smoke/serve.log"
grep -q '"dropped":0' "$smoke/serving.json"
grep -q '"from":"default@v1"' "$smoke/serving.json"
grep -q '"to":"default@v2"' "$smoke/serving.json"
grep -q '"p99_s"' "$smoke/serving.json"
# The two pools serve each dispatch concurrently on the host. Every field of
# the report is on the simulated clock, so a second run must write the same
# report byte for byte; any dependence on which pool finished first fails.
cargo run --release -q -p culda-cli -- serve --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/c.phi" --model-b "$smoke/green.phi" \
    --pools 2 --pool-workers 1 --rate 300 --duration 0.2 --swap-at 0.1 \
    --out "$smoke/serving2.json" > /dev/null
cmp "$smoke/serving.json" "$smoke/serving2.json"

echo "==> mode-grid gate (bench_modes against BENCH_modes.jsonl)"
# One run of every sync, sampling and draw mode, node count and the serving
# hot-swap. The bin exits non-zero when a check fails: a mode or node count
# trains a different model, auto models slower than the best fixed mode, the
# swap drops a request. Every printed number is on the modelled clock, so
# the output must equal the committed file byte for byte. After a
# deliberate modelled change, re-record it:
#   cargo run --release -q -p culda-bench --bin bench_modes > BENCH_modes.jsonl
cargo run --release -q -p culda-bench --bin bench_modes > "$smoke/modes.jsonl"
diff -u BENCH_modes.jsonl "$smoke/modes.jsonl"

echo "==> cargo doc (warnings denied)"
# Broken intra-doc links and bracketed text read as links fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> CI green"
