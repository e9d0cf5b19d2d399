#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
#
# Run from the repo root. Every check must pass before merging:
#   ./ci.sh
#
# Every workspace cargo call runs with --offline --locked: the workspace
# depends on no registry crate, so it must build from the committed
# Cargo.lock with no network.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> Tier-1: cargo build --release && cargo test -q (offline, locked)"
cargo build --release --offline --locked && cargo test -q --offline --locked

echo "==> Cargo.lock lists only workspace packages (no registry crate)"
registry=$(awk '/^name = /{name=$3} /^source = /{print name}' Cargo.lock | tr -d '"')
if [ -n "${registry}" ]; then
    echo "ci.sh: Cargo.lock names packages from outside the workspace: ${registry}" >&2
    exit 1
fi

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> QA benchmark pinned outputs (results/stats.txt and the Table-2 \"Ours\" row at seed 0)"
# The benchmark's own lock still lists the registry stand-ins its
# [patch.crates-io] table names, which the workspace no longer uses, so
# cargo rewrites it on build; restore it to leave the tree clean.
qabench_lock=$(mktemp)
cp qabench/Cargo.lock "${qabench_lock}"
qabench_status=0
cargo test --release --offline --manifest-path qabench/Cargo.toml || qabench_status=$?
cp "${qabench_lock}" qabench/Cargo.lock
rm -f "${qabench_lock}"
if [ "${qabench_status}" -ne 0 ]; then
    exit "${qabench_status}"
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --offline --locked --workspace --all-targets -- -D warnings

echo "==> detlint --workspace (determinism & unsafe-invariant gate)"
cargo run -q --offline --locked --release -p detlint -- --workspace

echo "==> cargo test -q --workspace"
cargo test -q --offline --locked --workspace

echo "==> cargo test -q --workspace --release (thread interleavings differ from debug)"
cargo test -q --offline --locked --workspace --release

echo "==> results/*.txt reproduce byte for byte (each table binary vs its committed output)"
for committed in results/*.txt; do
    name=$(basename "${committed}" .txt)
    if ! cargo run -q --offline --locked --release -p bench --bin "${name}" > "/tmp/results_${name}.txt" 2>&1 ||
        ! cmp -s "${committed}" "/tmp/results_${name}.txt"; then
        echo "ci.sh: results/${name}.txt does not reproduce — regenerate with: cargo run --release -q -p bench --bin ${name} > results/${name}.txt 2>&1" >&2
        exit 1
    fi
done

echo "==> miri smoke over the portable quant leaves (UB gate)"
if rustup run nightly cargo miri --version >/dev/null 2>&1; then
    # Miri reports no AVX2 or AVX-512, so runtime dispatch takes the
    # portable leaves (the portable block leaf's group dots over the
    # 16-row, 64-byte-chunk layout, candidate scores, the integer
    # pre-threshold) and the one-pass block quantizer, which the quant::
    # tests check against naive loops over the block layout, the
    # row-major quantization and the scalar jitter. Any UB
    # (out-of-bounds load, invalid transmute) fails the build here.
    rustup run nightly cargo miri test --offline --locked -p semvec --lib quant:: || {
        echo "ci.sh: miri found undefined behavior in the quant kernels" >&2
        exit 1
    }
else
    echo "    miri unavailable (nightly component not installed) — skipping UB smoke"
fi

echo "==> chaos smoke (fault rate 0.3: no panics, nonzero score, thread identity under faults)"
cargo run -q --offline --locked --release -p bench --bin chaos -- --smoke | tee /tmp/chaos_smoke.out
grep -q "runner threads 1/8 identical" /tmp/chaos_smoke.out || {
    echo "ci.sh: chaos smoke lost the runner thread-identity assertion" >&2
    exit 1
}

echo "==> perf smoke (the scan, at every batch width, bit-identical to the naive oracle)"
cargo run -q --offline --locked --release -p bench --bin perf -- --smoke | tee /tmp/perf_smoke.out
grep -q "batched kernel bit-identical" /tmp/perf_smoke.out || {
    echo "ci.sh: perf smoke lost the batched-identity assertion" >&2
    exit 1
}
grep -q "stage breakdown" /tmp/perf_smoke.out || {
    echo "ci.sh: perf smoke lost the per-stage timing breakdown" >&2
    exit 1
}
grep -q "runner thread-identity ok" /tmp/perf_smoke.out || {
    echo "ci.sh: perf smoke lost the 1/2/4/8 thread-identity gate" >&2
    exit 1
}
grep -q "perf smoke scaling ok" /tmp/perf_smoke.out || {
    echo "ci.sh: perf smoke lost the scaling row (segmented build → resident bytes → top-k identity vs the naive oracle)" >&2
    exit 1
}

echo "==> soak smoke (concurrent serving: contract holds, 1-vs-8-worker identity)"
cargo run -q --offline --locked --release -p bench --bin soak -- --smoke | tee /tmp/soak_smoke.out
grep -q "workers 1/8 identical" /tmp/soak_smoke.out || {
    echo "ci.sh: soak smoke lost the worker-count identity assertion" >&2
    exit 1
}

echo "==> BENCH_soak.json carries the soak sweep and its gates"
grep -q '"bench": "soak"' BENCH_soak.json || {
    echo "ci.sh: BENCH_soak.json missing or stale — regenerate with: cargo run --release -p bench --bin soak" >&2
    exit 1
}
grep -q '"worker_count_identity": true' BENCH_soak.json || {
    echo "ci.sh: BENCH_soak.json gates incomplete — regenerate with: cargo run --release -p bench --bin soak" >&2
    exit 1
}

echo "==> BENCH_perf.json carries batched, stages, threads_sweep, and scaling sections"
grep -q '"batched"' BENCH_perf.json || {
    echo "ci.sh: BENCH_perf.json lacks the \"batched\" section — regenerate with: cargo run --release -p bench --bin perf" >&2
    exit 1
}
grep -q '"stages"' BENCH_perf.json || {
    echo "ci.sh: BENCH_perf.json lacks the \"stages\" section — regenerate with: cargo run --release -p bench --bin perf" >&2
    exit 1
}
grep -q '"threads_sweep"' BENCH_perf.json || {
    echo "ci.sh: BENCH_perf.json lacks the \"threads_sweep\" section — regenerate with: cargo run --release -p bench --bin perf" >&2
    exit 1
}
grep -q '"scaling"' BENCH_perf.json || {
    echo "ci.sh: BENCH_perf.json lacks the \"scaling\" section — regenerate with: cargo run --release -p bench --bin perf" >&2
    exit 1
}
grep -q '"docs": 1000000' BENCH_perf.json || {
    echo "ci.sh: BENCH_perf.json scaling curve lost its 1M-doc row — regenerate with: cargo run --release -p bench --bin perf" >&2
    exit 1
}

echo "ci.sh: all checks passed"
