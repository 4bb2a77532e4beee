#!/usr/bin/env bash
# Same-host, same-session A/B of the perf ledger: commit BASE against the
# working tree, both through benchmark/run.sh's one-pass form.
#
#   scripts/perf-ab.sh BASE
#
# Hard gate: on one traced pass per workload, every sim.* value, the
# server's rejected / events_published / events_dropped counters and
# `failed` must be identical on both sides, and no pass may report a
# failed operation. The identity half is skipped only when the diff
# against BASE itself re-records the simulated behaviour: it removes or
# changes a line of tests/step_digest.rs or crates/lab/tests/golden/.
# A diff that only adds lines there (new digest cells) keeps the gate on.
# Soft gate: over alternating untraced pairs, a median end-to-end metric
# may be worse than the parent's by at most its bound in BENCHMARK.json.
# The table also prints each side's Q1 - Q3 and in how many pairs the
# change read better, which is what a speed claim is judged on
# (benchmark/README.md: >= 10 pairs of --seconds 10; raise PAIRS and
# SECONDS_PER_PASS here for that).
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: scripts/perf-ab.sh BASE" >&2; exit 2; }
cd "$(dirname "${BASH_SOURCE[0]}")/.."

SEED=2009
SECONDS_PER_PASS=3
PAIRS=3
IDENTITY_WORKLOADS="optical-stable optical-saturated optical-faulted electrical-baseline splash2-replay lab-smalljobs serve-smalljobs"
# optical-saturated is the busy side of any quiet-path change to core;
# serve-smalljobs is the only workload the serving layer runs in. Its
# closed loop is work-bound (fsyncs and a 4 ms run, no sleeps), so it
# spreads with the host: read wall_s beside jobs_per_s, each against its
# own Q1 - Q3. splash2-replay is the dearest cycle of the reproduction
# (every router busy under a broadcast storm) and the only optical
# workload that broadcasts, so inject's broadcast path is timed only here.
TIMED_WORKLOADS="optical-stable optical-saturated electrical-baseline splash2-replay serve-smalljobs"

base=$(git rev-parse --verify "$1^{commit}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$base" | tar -x -C "$work/parent"

root() { if [ "$1" = parent ]; then echo "$work/parent"; else pwd; fi; }

# pass SIDE WORKLOAD TRACE TAG: one ledger pass; keeps its result line.
# Exit status 1 is a pass that counted failed operations: the line is
# still there and the report below names it.
pass() {
    echo "== $1 $2 trace=$3 ($4)" >&2
    { CARGO_TARGET_DIR="$work/target-$1" "$(root "$1")/benchmark/run.sh" \
        --workload "$2" --seed "$SEED" --seconds "$SECONDS_PER_PASS" --trace "$3" \
        || [ $? -eq 1 ]; } | tail -n 1 > "$work/$1.$2.$4.json"
}

for side in parent change; do
    echo "== build $side" >&2
    CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$(root "$side")/benchmark/Cargo.toml"
done
for w in $IDENTITY_WORKLOADS; do
    pass parent "$w" 1 traced
    pass change "$w" 1 traced
done
for w in $TIMED_WORKLOADS; do
    for pair in $(seq "$PAIRS"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do pass "$side" "$w" 0 "$pair"; done
    done
done

if git diff -U0 "$base" -- tests/step_digest.rs crates/lab/tests/golden/ | grep -qE '^-[^-]'; then
    identity=0
    echo "the diff against $1 re-records simulated behaviour: sim.* identity not required"
else
    identity=1
fi

python3 - "$work" "$identity" "$PAIRS" "$IDENTITY_WORKLOADS" "$TIMED_WORKLOADS" <<'EOF'
import json, statistics, sys

work, identity, pairs = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
identity_workloads, timed_workloads = sys.argv[4].split(), sys.argv[5].split()
problems = []


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{statistics.median(values):.6g} ({q1:.6g} - {q3:.6g})"


def result(side, workload, tag):
    r = json.load(open(f"{work}/{side}.{workload}.{tag}.json"))
    if side == "change" and r["failed"] != 0:
        problems.append(f"{workload} ({tag}): {r['failed']} of {r['attempted']} operations failed")
    return r


print(f"\n{'workload':<20} {'exact value':<26} {'parent':>22} {'change':>22}")
for w in identity_workloads:
    parent, change = result("parent", w, "traced"), result("change", w, "traced")
    rows = [("failed", parent["failed"], change["failed"])] + [
        (k, v["value"], change["metrics"].get(k, {}).get("value"))
        for k, v in parent["metrics"].items()
        if k.startswith("sim.") or k in ("serve.rejected", "serve.events_published", "serve.events_dropped")
    ]
    for name, p, c in rows:
        differs = repr(p) != repr(c)
        print(f"{w:<20} {name:<26} {p!r:>22} {c!r:>22}{'  DIFFERS' if differs else ''}")
        if differs and identity:
            problems.append(f"{w}: {name} is {c!r}, parent has {p!r}")

print(f"\n{'workload':<20} {'median of ' + str(pairs):<18} {'parent (Q1 - Q3)':>36} {'change (Q1 - Q3)':>36} {'worse by':>9} {'bound':>6} {'change wins':>12}")
for w in timed_workloads:
    runs = {s: [result(s, w, t)["metrics"] for t in range(1, pairs + 1)] for s in ("parent", "change")}
    for m in json.load(open("BENCHMARK.json"))["end_to_end"]:
        lower = m["better"] == "lower"
        ps, cs = ([r[m["name"]]["value"] for r in runs[s]] for s in ("parent", "change"))
        p, c = statistics.median(ps), statistics.median(cs)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(ps, cs))
        worse = (c - p) / p if lower else (p - c) / p
        print(f"{w:<20} {m['name']:<18} {spread(ps):>36} {spread(cs):>36} {worse:>+9.1%} {m['bound']:>6.0%} {wins:>9}/{pairs}")
        if worse > m["bound"]:
            problems.append(f"{w}: {m['name']} median is {worse:.1%} worse than the parent's (bound {m['bound']:.0%})")

for p in problems:
    print(f"FAIL {p}", file=sys.stderr)
sys.exit(1 if problems else 0)
EOF
