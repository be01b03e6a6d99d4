#!/usr/bin/env bash
# Do two full sets of runs of the same code at the same seed agree?
#
#   benchmark/agree.sh [SEED [SECOND_SEED]]     (defaults 1 and 2)
#
# Runs every workload untraced and traced, twice, at SEED, and prints for
# every (workload, end-to-end metric) the second run's change against the
# first beside the bound BENCHMARK.json fixes. Exits non-zero if a change
# exceeds its bound, if sim_time_s or a count-type per-layer metric
# differs at all, or if any op fails verification. Then runs one set at
# SECOND_SEED and requires zero failures there too. About ten minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec python3 - "${1:-1}" "${2:-2}" <<'PY'
import json, subprocess, sys

seed, second_seed = sys.argv[1], sys.argv[2]
base = ["cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", "benchmark/Cargo.toml", "--"]
catalog = json.loads(subprocess.run(base + ["--catalog"], check=True,
                                    capture_output=True, text=True).stdout)
bench = catalog["benchmark"]
exact = set(catalog["exact_per_layer"])
seconds = str(bench["run_seconds"])


def run(workload, seed, trace):
    out = subprocess.run(base + ["--workload", workload, "--seed", seed,
                                 "--seconds", seconds, "--trace", trace],
                         check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["values"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


problems = []
for w in (w["name"] for w in bench["workloads"]):
    first = {t: run(w, seed, t) for t in "01"}
    second = {t: run(w, seed, t) for t in "01"}
    other = run(w, second_seed, "0")
    for label, r in [("first", first["0"]), ("first traced", first["1"]),
                     ("second", second["0"]), ("second traced", second["1"]),
                     (f"seed {second_seed}", other)]:
        if not r["correct"] or r["failed"] != 0:
            problems.append(f"{w}: {label} run failed verification "
                            f"({r['failed']} of {r['attempted']} ops)")
    print(f"== {w}")
    for m in bench["end_to_end"]:
        a, b = first["0"]["values"][m["name"]], second["0"]["values"][m["name"]]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok"
        if m["name"] == "sim_time_s" and a != b:
            verdict = "DIFFERS (must be identical)"
        elif worse > m["bound"]:
            verdict = "EXCEEDS BOUND"
        if verdict != "ok":
            problems.append(f"{w}: {m['name']} {a} -> {b}: {verdict}")
        print(f"  {m['name']:22s} {a:14.6g} -> {b:14.6g} {m['unit']:6s}"
              f" worse by {worse * 100:+6.2f}% (bound {m['bound'] * 100:.0f}%) {verdict}")
    for name in sorted(exact):
        a, b = first["1"]["values"][name], second["1"]["values"][name]
        if a != b:
            problems.append(f"{w}: exact per-layer metric {name} differs: {a} vs {b}")
    print(f"  {len(exact)} exact per-layer metrics compared")

if problems:
    print("\nagree.sh: DISAGREEMENT")
    for p in problems:
        print("  " + p)
    sys.exit(1)
print("\nagree.sh: the two sets agree")
PY
