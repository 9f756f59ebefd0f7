#!/usr/bin/env python3
"""Runs the bench_e2e package's tests, then every workload untraced over the
baseline's seeds and once traced; prints the median and quartile spread of
every metric; and exits non-zero when a test or check fails or an end-to-end
metric is worse than the committed baseline.

Run from the repository root:

    python3 bench_e2e/run_all.py            # compare with the baseline
    python3 bench_e2e/run_all.py --record   # also add this run as a baseline set

Every run lasts BENCHMARK.json's run_seconds, as the baseline's did. A metric
that the baseline's two sets recorded identically for every seed is exact:
it is compared seed by seed, and any worsening breaks it. Any other metric
is compared by its median over the same seeds, against its bound in
BENCHMARK.json. Traces land in .bench_build/traces.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
TRACE_DIR = ROOT / ".bench_build" / "traces"
# Seeds of a first recording, when there is no baseline yet.
DEFAULT_SEEDS = list(range(1, 11))
# Relative change below which an exact metric counts as unchanged
# (printing and re-parsing a float may move its last digit).
EXACT_TOLERANCE = 1e-9


def cargo(*args):
    cmd = ["cargo", *args, "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    subprocess.run(cmd, check=True)


def run_once(binary, workload, seed, seconds, trace, trace_out=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    notes = lines[:-1]
    if not result["correct"]:
        print("\n".join(notes))
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    return result, notes


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2)


def worse_by(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    change = (new - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def is_exact(sets, workload, name):
    """Whether every baseline set recorded the same value for every seed."""
    runs = [s[workload][name] for s in sets]
    return len(runs) >= 2 and all(r == runs[0] for r in runs)


def compare(metric, vals, sets, workload):
    """`(baseline, worse, kind, broken)` for one metric on one workload."""
    name = metric["name"]
    if not sets:
        return None, None, "-", False
    if is_exact(sets, workload, name):
        worst = max(worse_by(metric, b, v) for b, v in zip(sets[0][workload][name], vals))
        return statistics.median(sets[0][workload][name]), worst, "exact", worst > EXACT_TOLERANCE
    past = [v for s in sets for v in s[workload][name]]
    base = statistics.median(past)
    worse = worse_by(metric, base, statistics.median(vals))
    return base, worse, f"{metric['bound']:.0%}", worse > metric["bound"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true",
                    help="append this run to baseline.json (keeps the newest two sets)")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {"sets": []}
    if baseline["sets"] and baseline["seconds"] != seconds:
        raise SystemExit(f"baseline was recorded with runs of {baseline['seconds']} s, "
                         f"BENCHMARK.json asks for {seconds} s: record it again")
    seeds = baseline.get("seeds", DEFAULT_SEEDS)
    sets = baseline["sets"]

    cargo("test")
    cargo("build")
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    binary = target / "release" / "bench_e2e"
    TRACE_DIR.mkdir(parents=True, exist_ok=True)

    values = {w: {} for w in workloads}
    references = {}
    for w in workloads:
        for seed in seeds:
            result, notes = run_once(binary, w, seed, seconds, trace=False)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            references[w] = [n for n in notes if n.startswith("reference")]
    (TRACE_DIR / "runs.json").write_text(json.dumps(values, indent=1) + "\n")

    broken = []
    print(f"\n== end-to-end, seeds {seeds[0]}..{seeds[-1]}, {seconds} s runs ==")
    print(f"{'workload':<24}{'metric':<24}{'median':>16}{'spread':>9}{'bound':>7}"
          f"{'baseline':>16}{'worse':>9}")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            vals = values[w][name]
            base, worse, kind, is_broken = compare(metric, vals, sets, w)
            flag = ""
            if is_broken:
                flag = "  BROKEN"
                broken.append(f"{w} {name}")
            elif kind != "exact" and spread(vals) > metric["bound"]:
                flag = "  unresolved"
            print(f"{w:<24}{name:<24}{statistics.median(vals):>16.6g}{spread(vals):>9.3%}"
                  f"{kind:>7}"
                  + (f"{base:>16.6g}{worse:>+9.2%}" if base is not None else f"{'-':>16}{'-':>9}")
                  + flag)
            if name == "tokens_per_s.modelled":
                for line in references.get(w, []):
                    print(f"{'':<24}{line}")

    print(f"\n== per-layer, traced run at seed {seeds[0]} ==")
    for w in workloads:
        result, notes = run_once(binary, w, seeds[0], seconds, trace=True,
                                 trace_out=TRACE_DIR / f"{w}.json")
        print(f"-- {w}")
        for line in notes:
            print(f"   {line}")
        for metric in bench["per_layer"]:
            m = result["metrics"][metric["name"]]
            print(f"   {metric['name']:<32}{m['value']:>16.6g} {m['unit']}")

    if args.record:
        baseline = {"seeds": seeds, "seconds": seconds, "sets": (sets + [values])[-2:]}
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"\nrecorded {BASELINE.relative_to(ROOT)}")
    if broken:
        print("\nbounds broken: " + ", ".join(broken))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
