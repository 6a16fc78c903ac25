#!/usr/bin/env sh
# Tier-1 gate: everything here must pass before merging.
#
# Tests run on the workspace default-members (crates/bench is excluded
# there to keep this loop fast); crates/bench and the benchmark/ package
# are built, not tested, below.
set -eu

cd "$(dirname "$0")/.."

if command -v cargo-fmt >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --check
else
    echo "==> rustfmt not installed; skipping format step"
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# Crates outside the default members still call the library API: the
# paper-figure bench crate and the repo benchmark (its own package).
# Build both so an API change cannot break either one silently.
echo "==> cargo build --release -p slip-bench --benches"
cargo build --release -p slip-bench --benches

# The paper's one entry point runs every table's cells as one journaled
# sweep. A second run into the same journal must restore every cell,
# append nothing and print identical tables. (`cargo bench` runs the
# target from its crate directory, so the journal path is absolute.)
echo "==> all_figures twice into one journal (20k accesses)"
FIGURES="$PWD/target/ci-figures"
rm -f "$FIGURES.jsonl" "$FIGURES".*.out "$FIGURES".*.err "$FIGURES.first.jsonl"
for run in 1 2; do
    if ! SLIP_ACCESSES=20000 SLIP_WARMUP=0 SLIP_JOURNAL="$FIGURES.jsonl" \
        cargo bench -q -p slip-bench --bench all_figures \
        >"$FIGURES.$run.out" 2>"$FIGURES.$run.err"; then
        echo "all_figures run $run failed:" >&2
        cat "$FIGURES.$run.err" >&2
        exit 1
    fi
    if [ "$run" = 1 ]; then
        cp "$FIGURES.jsonl" "$FIGURES.first.jsonl"
    fi
done
cmp -s "$FIGURES.1.out" "$FIGURES.2.out" || {
    echo "all_figures printed different tables when resumed from its journal" >&2
    diff "$FIGURES.1.out" "$FIGURES.2.out" >&2 || true
    exit 1
}
cmp -s "$FIGURES.first.jsonl" "$FIGURES.jsonl" || {
    echo "all_figures re-ran journaled cells (the journal grew)" >&2
    exit 1
}
rm -f "$FIGURES".*.out "$FIGURES".*.err "$FIGURES.first.jsonl"
echo "==> cargo build --release --offline --manifest-path benchmark/Cargo.toml"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Conformance gate: bounded differential fuzz + invariant sweep
# (including the fused-, fastpath-, serve-, and topology-determinism
# checks: inline stepping through the L1 fast path, streamed fused
# groups stepping every cell through their shared L1, and every
# built-in hierarchy spec must be bit-identical to the verbatim
# reference over the adversarial trace families) at a fixed seed, so every run covers the identical
# scenario set. --topology stt-llc additionally drives the asymmetric
# STT-RAM node through the CLI spec-loading path and holds it to the
# same run-mode determinism bar. Override the iteration budget with
# SLIP_FUZZ_ITERS if the default is too slow on a given machine. The
# nightly-equivalent full budget is:
#   ./target/release/slip check --full --oracle
echo "==> slip check --quick --seed 0x511b --topology stt-llc"
SLIP_FUZZ_ITERS="${SLIP_FUZZ_ITERS:-48}" ./target/release/slip check --quick --seed 0x511b \
    --topology stt-llc

# Malformed-spec rejection smoke: a broken topology file must fail
# fast with a positioned diagnostic, never reach simulation.
echo "==> malformed topology rejection smoke"
TOPO_BAD="target/ci-bad.topo"
printf 'node broken\nwire 0.16\n' > "$TOPO_BAD"
if ./target/release/slip run gcc --topology "$TOPO_BAD" --accesses 100 \
    >/dev/null 2>"$TOPO_BAD.err"; then
    echo "malformed topology was accepted" >&2
    exit 1
fi
grep -q 'line 2' "$TOPO_BAD.err" || {
    echo "malformed topology error lacks a position:" >&2
    cat "$TOPO_BAD.err" >&2
    exit 1
}
rm -f "$TOPO_BAD" "$TOPO_BAD.err"

if command -v cargo-clippy >/dev/null 2>&1; then
    echo "==> cargo clippy -q --all-targets -- -D warnings"
    cargo clippy -q --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint step"
fi

# Every intra-doc link must resolve: a link to a deleted or private
# item fails here instead of rotting silently.
echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace --lib

# Serve smoke: boot the daemon on an ephemeral loopback port and push
# a 2x2 sweep through a real client with offline verification: server
# and offline sweep run the same streamed fused groups, so
# --verify-offline is an end-to-end bit-exactness gate across the pool,
# journal and wire codec (the submit exits non-zero on any byte
# difference).
# Then shut down gracefully. Everything is timeout-bounded so a wedged
# server fails the gate instead of hanging it.
echo "==> slip serve loopback smoke"
SERVE_DIR="target/ci-serve"
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
./target/release/slip serve --addr 127.0.0.1:0 --jobs 2 \
    --journal-dir "$SERVE_DIR/journals" --port-file "$SERVE_DIR/port" \
    --quiet &
SERVE_PID=$!
tries=0
while [ ! -s "$SERVE_DIR/port" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "serve smoke: server never wrote its port file" >&2
        kill -9 "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
SERVE_ADDR="$(cat "$SERVE_DIR/port")"
timeout 120 ./target/release/slip submit gcc soplex \
    --policy baseline --policy slip --accesses 20000 \
    --connect "$SERVE_ADDR" --verify-offline --quiet \
    > "$SERVE_DIR/stream.jsonl"
[ "$(wc -l < "$SERVE_DIR/stream.jsonl")" = "4" ] || {
    echo "serve smoke: expected 4 streamed cells" >&2
    kill -9 "$SERVE_PID" 2>/dev/null || true
    exit 1
}
kill -INT "$SERVE_PID"
tries=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ]; then
        echo "serve smoke: server did not drain within 20s of SIGINT" >&2
        kill -9 "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
wait "$SERVE_PID" 2>/dev/null || true
rm -rf "$SERVE_DIR"

# Retired-flag smoke: --shards no longer exists and must fail loudly,
# naming its replacement, instead of being silently ignored.
echo "==> slip sweep --shards 2 rejection smoke"
RETIRED_ERR="target/ci-retired.err"
if ./target/release/slip sweep gcc --accesses 1000 --shards 2 \
    >/dev/null 2>"$RETIRED_ERR"; then
    echo "retired --shards flag was accepted" >&2
    exit 1
fi
grep -q 'fused benchmark groups; parallelism is --jobs' "$RETIRED_ERR" || {
    echo "retired --shards error lacks the replacement:" >&2
    cat "$RETIRED_ERR" >&2
    exit 1
}
rm -f "$RETIRED_ERR"

# The two-core system models a non-inclusive LLC only, so `slip mix`
# must refuse --inclusive instead of silently running without it.
echo "==> slip mix --inclusive rejection smoke"
if ./target/release/slip mix gcc lbm --accesses 20000 --inclusive \
    >/dev/null 2>"$RETIRED_ERR"; then
    echo "slip mix accepted --inclusive" >&2
    exit 1
fi
grep -q 'the two-core system models a non-inclusive LLC' "$RETIRED_ERR" || {
    echo "slip mix --inclusive error lacks the reason:" >&2
    cat "$RETIRED_ERR" >&2
    exit 1
}
rm -f "$RETIRED_ERR"

# A subcommand accepts a flag only where it reads it: `slip sweep` has
# no CSV output, so --csv must fail at parse time, naming the
# subcommand and the flag, and write no file.
echo "==> slip sweep --csv rejection smoke"
SWEEP_CSV="target/ci-sweep.csv"
rm -f "$SWEEP_CSV"
if ./target/release/slip sweep gcc --accesses 1000 --csv "$SWEEP_CSV" \
    >/dev/null 2>"$RETIRED_ERR"; then
    echo "slip sweep accepted --csv" >&2
    exit 1
fi
head -n 1 "$RETIRED_ERR" | grep -q '`slip sweep` does not take --csv' || {
    echo "slip sweep --csv error does not name the subcommand and flag:" >&2
    cat "$RETIRED_ERR" >&2
    exit 1
}
if [ -e "$SWEEP_CSV" ]; then
    echo "slip sweep --csv wrote $SWEEP_CSV before failing" >&2
    exit 1
fi
rm -f "$RETIRED_ERR"

# The same for the retired serve trace-cache budget: every trace is
# streamed, so the flag must fail at parse time, before the server
# binds (timeout-bounded in case it ever starts serving instead).
echo "==> slip serve --trace-cache-mb 64 rejection smoke"
if timeout 10 ./target/release/slip serve --addr 127.0.0.1:0 --trace-cache-mb 64 \
    >/dev/null 2>"$RETIRED_ERR"; then
    echo "retired --trace-cache-mb flag was accepted" >&2
    exit 1
fi
grep -q 'so there is no cache budget to set' "$RETIRED_ERR" || {
    echo "retired --trace-cache-mb error lacks the replacement:" >&2
    cat "$RETIRED_ERR" >&2
    exit 1
}
rm -f "$RETIRED_ERR"

# The bench gate's bound is fixed: --tolerance must fail at parse
# time, before any replay runs (timeout-bounded in case it ever starts
# benching instead).
echo "==> slip bench --quick --tolerance 50 rejection smoke"
if timeout 10 ./target/release/slip bench --quick --tolerance 50 \
    >"$RETIRED_ERR.out" 2>"$RETIRED_ERR"; then
    echo "retired --tolerance flag was accepted" >&2
    exit 1
fi
grep -q 'regression bound is fixed at 20%' "$RETIRED_ERR" || {
    echo "retired --tolerance error lacks the fixed bound:" >&2
    cat "$RETIRED_ERR" >&2
    exit 1
}
if [ -s "$RETIRED_ERR.out" ]; then
    echo "slip bench --tolerance started benching before failing:" >&2
    cat "$RETIRED_ERR.out" >&2
    exit 1
fi
rm -f "$RETIRED_ERR" "$RETIRED_ERR.out"

# The --check baseline loads before any replay: a missing file must
# fail at parse time and print nothing to stdout (timeout-bounded in
# case it ever starts benching first).
echo "==> slip bench --quick --check target/ci-missing.json rejection smoke"
MISSING_BASELINE="target/ci-missing.json"
rm -f "$MISSING_BASELINE"
if timeout 10 ./target/release/slip bench --quick --check "$MISSING_BASELINE" \
    >"$RETIRED_ERR.out" 2>"$RETIRED_ERR"; then
    echo "slip bench accepted a missing --check baseline" >&2
    exit 1
fi
grep -q "reading $MISSING_BASELINE" "$RETIRED_ERR" || {
    echo "slip bench missing-baseline error does not name the file:" >&2
    cat "$RETIRED_ERR" >&2
    exit 1
}
if [ -s "$RETIRED_ERR.out" ]; then
    echo "slip bench started benching before reading its --check baseline:" >&2
    cat "$RETIRED_ERR.out" >&2
    exit 1
fi
rm -f "$RETIRED_ERR" "$RETIRED_ERR.out"

# Perf-regression smoke: the quick suite rate (geometric mean of the
# four system replays) must stay within a fixed 20% of the committed
# baseline (BENCH_22.json, the best of six quick runs on a shared 2-vCPU
# host). CPU-time sensitive, so allow opting out on loaded/shared
# machines.
if [ "${SLIP_SKIP_BENCH:-0}" = "1" ]; then
    echo "==> SLIP_SKIP_BENCH=1; skipping bench smoke"
else
    echo "==> slip bench --quick --check BENCH_22.json"
    ./target/release/slip bench --quick --check BENCH_22.json
fi

echo "==> ci OK"
