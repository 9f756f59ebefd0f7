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
# given as $1. `culda infer` scores through the engine's evaluation call.
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
# Faults through `culda infer` and through losing every worker. Each row
# names the command, its flags, the fault plan, the exit code and a line
# the output must hold. A retried launch, and a lost worker whose
# micro-batches are re-enqueued on the survivor, must serve the θ̂ and
# perplexities of the fault-free run of the same shape. A training run
# that survives its faults, such as the loss of a whole node (devices 0
# and 1 of 2 nodes × 2 GPUs), must write the fault-free run's model byte
# for byte. This corpus fits at M = 1, so its C = G chunks all sit on
# node 0 and node 1 (devices 2 and 3) owns none: losing node 1 migrates
# no chunk. Losing the only worker, in serving or in training, is a fault
# (exit 3), not a panic.
while IFS='|' read -r command flags plan code line; do
    case "$command" in
        infer) io=(--model "$smoke/c.phi" --out "$smoke/fault-row.json") ;;
        train) io=(--model "$smoke/fault-row.phi" --topics 8 --iters 3 --score-every 0) ;;
    esac
    status=0
    # shellcheck disable=SC2086 # $flags is a list of words
    cargo run --release -q -p culda-cli -- "$command" --docword "$smoke/c.dw" \
        --vocab "$smoke/c.v" "${io[@]}" $flags --fault-plan "$plan" \
        > "$smoke/fault-row.log" 2>&1 < /dev/null || status=$?
    test "$status" -eq "$code" \
        || { echo "$command $flags under $plan exited $status, not $code"; exit 1; }
    grep -qF "$line" "$smoke/fault-row.log" \
        || { echo "$command $flags under $plan did not print: $line"; exit 1; }
    if [ "$command" = infer ] && [ "$code" -eq 0 ]; then
        python3 -c 'import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:])
keys = ("theta", "perplexity", "perplexity_by_sweep")
sys.exit(0 if all(a[k] == b[k] for k in keys) else 1)' \
            "$smoke/theta-c-2-16.json" "$smoke/fault-row.json" \
            || { echo "infer under $plan changed the served results"; exit 1; }
    fi
    if [ "$command" = train ] && [ "$code" -eq 0 ]; then
        # shellcheck disable=SC2086 # $flags is a list of words
        cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
            --vocab "$smoke/c.v" --model "$smoke/fault-free.phi" --topics 8 \
            --iters 3 --score-every 0 $flags > /dev/null < /dev/null
        cmp "$smoke/fault-free.phi" "$smoke/fault-row.phi" \
            || { echo "train $flags under $plan changed the model"; exit 1; }
    fi
done <<'FAULTS'
infer|--workers 2 --batch-size 16 --burnin 3 --samples 2|launch:0:0|0|recovery: 1 fault(s) injected, 1 retry(s)
infer|--workers 2 --batch-size 16 --burnin 3 --samples 2|launch:1:0:permanent|0|recovery: 3 fault(s) injected, 2 retry(s), 1 worker(s) lost, 6 chunk(s) migrated
infer|--workers 1|launch:0:0:permanent|3|error: all workers lost
train|--platform maxwell|launch:0:1:permanent|3|error: all workers lost
train|--platform pascal --gpus 2 --nodes 2|launch:0:1:permanent,launch:1:1:permanent|0|recovery: 6 fault(s) injected, 4 retry(s), 2 worker(s) lost, 2 chunk(s) migrated
train|--platform pascal --gpus 2 --nodes 2|launch:2:1:permanent,launch:3:1:permanent|0|recovery: 6 fault(s) injected, 4 retry(s), 2 worker(s) lost, 0 chunk(s) migrated
FAULTS
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

echo "==> docword reader smoke tests"
# The reader parses the docword body as ASCII bytes. CRLF endings, tabs
# between fields, a `+` on every count, a blank and a whitespace-only line
# and no final newline must read as the plain file did and train its model.
python3 - "$smoke/c.dw" "$smoke/messy.dw" <<'EOF'
import sys
src, dst = sys.argv[1:]
lines = open(src).read().splitlines()
body = []
for line in lines[3:]:
    doc, word, count = line.split()
    body.append(f"{doc}\t{word}\t+{count}")
body[1:1] = ["", " \t\x0b\x0c "]
open(dst, "w", newline="").write("\r\n".join(lines[:3] + body))
EOF
cargo run --release -q -p culda-cli -- train --docword "$smoke/messy.dw" \
    --vocab "$smoke/c.v" --model "$smoke/messy.phi" --topics 8 --iters 3 \
    --score-every 0 --platform maxwell
cmp "$smoke/c.phi" "$smoke/messy.phi"
# A D or W header one past u32::MAX, a count that takes the corpus past
# u32::MAX tokens (one that fits usize, one that is usize::MAX) and a
# 200,000-byte header line are data errors (exit 4) found before anything
# is sized from them, each told in under 1 KiB: not an abort on a huge
# allocation, and not the line echoed whole.
printf '4294967296\n3\n1\n1 1 1\n' > "$smoke/huge-d.dw"
printf '1\n4294967296\n1\n1 1 1\n' > "$smoke/huge-w.dw"
printf '1\n1\n1\n1 1 100000000000\n' > "$smoke/huge-count.dw"
printf '1\n1\n1\n1 1 18446744073709551615\n' > "$smoke/max-count.dw"
python3 -c 'import sys; sys.stdout.write("x" * 200000 + "\n1\n1\n1 1 1\n")' \
    > "$smoke/long-header.dw"
for docword in huge-d huge-w huge-count max-count long-header; do
    status=0
    timeout 10 cargo run --release -q -p culda-cli -- train \
        --docword "$smoke/$docword.dw" --vocab "$smoke/c.v" \
        --model "$smoke/$docword.phi" --topics 8 --iters 1 \
        2> "$smoke/$docword.err" || status=$?
    test "$status" -eq 4 || { echo "train on $docword.dw exited $status, not 4"; exit 1; }
    bytes="$(wc -c < "$smoke/$docword.err")"
    test "$bytes" -lt 1024 || { echo "train on $docword.dw wrote $bytes bytes to stderr"; exit 1; }
done

echo "==> mode-matrix smoke tests (sync, sampling, draw; both policies)"
# Every phi sync strategy, p* fill path and p1 draw engine must train the
# bit-identical model; only modelled time and bytes may differ. Each row
# names the partition policy, the flag, the topic count, the GPU count and
# the modes, the first being the one the others are compared with. At K = 8
# every index tree has one level; the sampling and draw matrices also run
# at K = 4096, where the p* tree has two upper levels, and at K = 1000,
# where the sampler's p* scratch is padded to a power of two. The sync
# matrix runs at K = 8, where summed rows turn dense, and at K = 4096,
# where every row stays sparse; on 4 GPUs the replicas merge up a
# two-level tree and the global payload is stored into four replicas at
# once. The word policy runs the same kernels over word-range chunks; the
# sync mode does not apply to it.
while read -r policy flag topics gpus modes; do
    reference=""
    for mode in $modes; do
        model="$smoke/$policy-$flag-$topics-$gpus-$mode.phi"
        cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
            --vocab "$smoke/c.v" --model "$model" --topics "$topics" \
            --iters 3 --score-every 0 --platform pascal --gpus "$gpus" \
            --policy "$policy" "--$flag" "$mode" < /dev/null
        if [ -z "$reference" ]; then
            reference="$model"
        else
            cmp "$reference" "$model"
        fi
    done
done <<'MATRIX'
doc sync-mode 8 2 dense-tree dense-ring delta auto
doc sync-mode 4096 2 dense-tree dense-ring delta auto
doc sync-mode 8 4 dense-tree dense-ring delta auto
doc sync-mode 4096 4 dense-tree dense-ring delta auto
doc sampling-mode 8 2 dense sparse auto
doc sampling-mode 4096 2 dense sparse auto
doc sampling-mode 1000 2 dense sparse auto
doc draw-mode 8 2 tree butterfly auto
doc draw-mode 4096 2 tree butterfly auto
doc draw-mode 1000 2 tree butterfly auto
word sampling-mode 8 2 dense sparse auto
word sampling-mode 4096 2 dense sparse auto
word draw-mode 8 2 tree butterfly auto
word draw-mode 4096 2 tree butterfly auto
MATRIX
# At K = 4096 the fold-in's row cache holds 4 words and no scoring tile
# fits, so this runs the paths for words past both caches.
infer_shapes "$smoke/doc-draw-mode-4096-2-tree.phi"

echo "==> word-policy fault smoke test"
# A transient launch fault under the word policy must recover to the clean
# word model (the word rows of the matrix above).
word_clean="$smoke/word-sampling-mode-8-2-dense.phi"
cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
    --vocab "$smoke/c.v" --model "$smoke/wf.phi" --topics 8 --iters 3 \
    --score-every 0 --platform pascal --gpus 2 --policy word \
    --fault-plan launch:0:1 | tee "$smoke/word-fault.log"
grep -q 'recovery: 1 fault(s) injected, 1 retry(s)' "$smoke/word-fault.log"
cmp "$word_clean" "$smoke/wf.phi"

echo "==> permanent GPU loss smoke tests (both policies)"
# GPU 1 fails every launch from iteration 1 on: after its retries it is
# declared lost, its chunk migrates to GPU 0 and re-runs there through the
# rebalance path. The model must equal its policy's clean model from the
# matrix above.
for policy in doc word; do
    case "$policy" in
        doc) clean="$smoke/doc-sync-mode-8-2-dense-tree.phi" ;;
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
# run of the same configuration (the dense-tree model from above), in
# every sync mode: each runs the same node merges and single store.
for mode in dense-tree dense-ring delta auto; do
    cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
        --vocab "$smoke/c.v" --model "$smoke/n-$mode.phi" --topics 8 --iters 3 \
        --score-every 0 --platform pascal --gpus 2 --nodes 2 --sync-mode "$mode" \
        | tee "$smoke/nodes-$mode.log"
    grep -q 'cluster: 2 node(s)' "$smoke/nodes-$mode.log"
    cmp "$smoke/doc-sync-mode-8-2-dense-tree.phi" "$smoke/n-$mode.phi"
done

echo "==> save-state/resume smoke tests"
# 2 + 1 iterations through --save-state/--resume must write the same model
# as 3 straight ones. Each row names the policy, K, the platform, the GPU
# and node counts, the straight model from above, and any extra flags. The
# rows cover a lone replica with no sum (one Maxwell GPU), the word layout
# at K = 8 and at K = 4096, a sum in which every row stays sparse (K = 4096
# on 2 GPUs), and two nodes whose resume books the dense tree or delta.
while read -r policy topics platform gpus nodes straight flags; do
    resumed="$smoke/resumed-$straight"
    for run in "--iters 2 --save-state" "--iters 1 --resume"; do
        # shellcheck disable=SC2086 # $run and $flags are lists of words
        cargo run --release -q -p culda-cli -- train --docword "$smoke/c.dw" \
            --vocab "$smoke/c.v" --model "$resumed" --topics "$topics" \
            --score-every 0 --platform "$platform" --gpus "$gpus" --nodes "$nodes" \
            --policy "$policy" $flags $run "$resumed.state" < /dev/null
    done
    cmp "$smoke/$straight" "$resumed"
done <<'RESUME'
doc 8 maxwell 1 1 c.phi
word 8 pascal 2 1 word-sampling-mode-8-2-dense.phi
word 4096 pascal 2 1 word-sampling-mode-4096-2-dense.phi --sampling-mode dense
doc 4096 pascal 2 1 doc-sync-mode-4096-2-auto.phi --sync-mode auto
doc 8 pascal 2 2 n-dense-tree.phi --sync-mode dense-tree
doc 8 pascal 2 2 n-delta.phi --sync-mode delta
RESUME

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
