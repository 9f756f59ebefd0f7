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
# the micro-batch size must not change θ̂ or any perplexity of the model
# given as $1.
infer_shapes() {
    local name
    name="$(basename "$1" .phi)"
    for shape in "1 64" "2 16"; do
        read -r workers batch <<< "$shape"
        cargo run --release -q -p culda-cli -- infer --model "$1" \
            --docword "$smoke/c.dw" --vocab "$smoke/c.v" --workers "$workers" \
            --batch-size "$batch" --burnin 3 --samples 2 \
            --out "$smoke/theta-$name-$workers-$batch.json"
    done
    python3 -c 'import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:])
keys = ("theta", "perplexity", "perplexity_by_sweep")
sys.exit(0 if a["theta"] and all(a[k] == b[k] for k in keys) else 1)' \
        "$smoke/theta-$name-1-64.json" "$smoke/theta-$name-2-16.json" \
        || { echo "infer $name: results depend on --workers/--batch-size"; exit 1; }
}
infer_shapes "$smoke/c.phi"
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

echo "==> mode-matrix smoke tests (sync, sampling, draw; both policies)"
# Every phi sync strategy, p* fill path and p1 draw engine must train the
# bit-identical model; only modelled time and bytes may differ. Each row
# names the partition policy, the flag, the topic count and the modes, the
# first being the one the others are compared with. At K = 8 every index
# tree has one level; the sampling and draw matrices also run at K = 4096,
# where the p* tree has two upper levels. The word policy runs the same
# kernels over word-range chunks; the sync mode does not apply to it.
while read -r policy flag topics modes; do
    reference=""
    for mode in $modes; do
        model="$smoke/$policy-$flag-$topics-$mode.phi"
        cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
            --vocab "$smoke/c.v" --model "$model" --topics "$topics" \
            --iters 3 --score-every 0 --platform pascal --gpus 2 \
            --policy "$policy" "--$flag" "$mode" < /dev/null
        if [ -z "$reference" ]; then
            reference="$model"
        else
            cmp "$reference" "$model"
        fi
    done
done <<'MATRIX'
doc sync-mode 8 dense-tree dense-ring delta auto
doc sampling-mode 8 dense sparse auto
doc sampling-mode 4096 dense sparse auto
doc draw-mode 8 tree butterfly auto
doc draw-mode 4096 tree butterfly auto
word sampling-mode 8 dense sparse auto
word sampling-mode 4096 dense sparse auto
word draw-mode 8 tree butterfly auto
word draw-mode 4096 tree butterfly auto
MATRIX
# At K = 4096 the fold-in's row cache holds 4 words and no scoring tile
# fits, so this runs the paths for words past both caches.
infer_shapes "$smoke/doc-draw-mode-4096-tree.phi"

echo "==> word-policy fault and resume smoke tests"
# A transient launch fault under the word policy must recover to the clean
# word model, and 2 + 1 iterations through --save-state/--resume must write
# the same model as 3 straight ones (the word rows of the matrix above).
word_clean="$smoke/word-sampling-mode-8-dense.phi"
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/wf.phi" --topics 8 --iters 3 \
    --score-every 0 --platform pascal --gpus 2 --policy word \
    --fault-plan launch:0:1 | tee "$smoke/word-fault.log"
grep -q 'recovery: 1 fault(s) injected, 1 retry(s)' "$smoke/word-fault.log"
cmp "$word_clean" "$smoke/wf.phi"
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/wr.phi" --topics 8 --iters 2 \
    --score-every 0 --platform pascal --gpus 2 --policy word \
    --save-state "$smoke/w.state"
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/wr.phi" --topics 8 --iters 1 \
    --score-every 0 --platform pascal --gpus 2 --resume "$smoke/w.state"
cmp "$word_clean" "$smoke/wr.phi"

echo "==> permanent GPU loss smoke tests (both policies)"
# GPU 1 fails every launch from iteration 1 on: after its retries it is
# declared lost, its chunk migrates to GPU 0 and re-runs there through the
# rebalance path. The model must equal its policy's clean model from the
# matrix above.
for policy in doc word; do
    case "$policy" in
        doc) clean="$smoke/doc-sync-mode-8-dense-tree.phi" ;;
        word) clean="$word_clean" ;;
    esac
    cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
        --vocab "$smoke/c.v" --model "$smoke/lost-$policy.phi" --topics 8 \
        --iters 3 --score-every 0 --platform pascal --gpus 2 --policy "$policy" \
        --fault-plan launch:1:1:permanent | tee "$smoke/lost-$policy.log"
    grep -q '1 worker(s) lost, 1 chunk(s) migrated' "$smoke/lost-$policy.log"
    cmp "$clean" "$smoke/lost-$policy.phi"
done

echo "==> multi-node smoke test"
# A 2-node cluster run must train the bit-identical model to the 1-node
# run of the same configuration (the dense-tree model from above).
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/n.phi" --topics 8 --iters 3 \
    --score-every 0 --platform pascal --gpus 2 --nodes 2 \
    | tee "$smoke/nodes.log"
grep -q 'cluster: 2 node(s)' "$smoke/nodes.log"
cmp "$smoke/doc-sync-mode-8-dense-tree.phi" "$smoke/n.phi"
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

echo "==> paper shapes (table4, table5, fig9)"
# Each paper harness prints the paper's shape check as HOLDS or VIOLATED;
# each row names the harness, how many HOLDS lines it must print, and its
# settings. table4 and table5 run at a cheap scale. fig9 runs at full
# scale: its corpus is sized for the paper's compute-to-sync ratio, and a
# smaller one bends the speed-ups below the paper's range. The harnesses
# write into results/, which is put back as it was afterwards.
cp -a results "$smoke/results"
shapes_ok=1
while read -r bin holds settings; do
    log="$smoke/$bin.log"
    # shellcheck disable=SC2086 # $settings is a list of VAR=value words
    if ! env $settings cargo run --release -q -p culda-bench --bin "$bin" \
        < /dev/null > "$log"; then
        echo "$bin: run failed"
        shapes_ok=0
        continue
    fi
    grep -E 'HOLDS|VIOLATED' "$log" || true
    if grep -q VIOLATED "$log" || [ "$(grep -c HOLDS "$log")" -lt "$holds" ]; then
        echo "$bin: a paper shape check does not hold"
        shapes_ok=0
    fi
done <<'SHAPES'
table4 2 CULDA_ITERS=5 CULDA_SCALE=0.3
table5 1 CULDA_ITERS=5 CULDA_SCALE=0.3
fig9 1 CULDA_ITERS=5
SHAPES
rm -rf results
mv "$smoke/results" results
[ "$shapes_ok" -eq 1 ] || exit 1

echo "==> cargo doc (warnings denied)"
# Broken intra-doc links and bracketed text read as links fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> CI green"
