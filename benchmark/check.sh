#!/usr/bin/env bash
# Lints, tests and smoke-runs the benchmark package. Root CI does not see
# it: the package is a workspace of its own.
#
#   benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"

# Every workload once, one set-up and only its leading fixed steps, with
# all verification on; then the same traced.
cargo build --release --offline --manifest-path "$manifest"
names=$(cargo run --release --offline --quiet --manifest-path "$manifest" -- --catalog |
    python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(sys.stdin)["benchmark"]["workloads"]))')
for trace in 0 1; do
    for workload in $names; do
        line=$(cargo run --release --offline --quiet --manifest-path "$manifest" -- \
            --workload "$workload" --seed 1 --seconds 0 --trace "$trace" --smoke | tail -n 1)
        python3 - "$workload" "$trace" "$line" <<'PY'
import json, sys
name, trace, line = sys.argv[1:]
result = json.loads(line)
assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (name, result)
print(f"smoke ok: {name} trace={trace}: {len(result['metrics'])} metrics, "
      f"{result['attempted']} ops verified")
PY
    done
done
echo "check.sh: all good"
