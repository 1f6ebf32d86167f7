# Developer entry points for the MICRO 2016 ASR accelerator reproduction.
# Usage: `just <target>` (or copy the command lines directly; everything is
# plain cargo, offline, no external dependencies).

# Build everything in release mode.
build:
    cargo build --release

# Run the full workspace test suite (tier-1 verify).
test:
    cargo build --release && cargo test -q

# Formatting and lints, as CI runs them.
check:
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings

# The repo's custom static-analysis pass: SAFETY comments on every
# unsafe, Ordering/raw-pointer allowlists, no-panic hot paths, and
# repr(C) size/align asserts. Exits non-zero on any finding.
lint:
    cargo run --release -p asr-verify --bin asr-lint .

# Exhaustive model checking of the lock-free executor: the checker's
# own litmus self-tests (correct idioms pass, seeded bugs are caught),
# then the pool harnesses (injector last element and full-ring helping,
# eventcount lost wakeup, batch slot generations) compiled against the
# shadow sync facade.
model-check:
    cargo test -q -p asr-verify
    cargo test -q -p asr-decoder --features model-check --lib model_check

# Targeted Miri over the unsafe suites (needs a nightly toolchain with
# the miri + rust-src components; CI runs this, offline boxes may not
# have it installed).
miri:
    @rustup component list --toolchain nightly 2>/dev/null | grep -q 'miri.*(installed)' \
        && { cargo +nightly miri test -p asr-decoder --lib token_table; \
             cargo +nightly miri test -p asr-decoder --lib search; \
             cargo +nightly miri test -p asr-decoder --lib stream; \
             cargo +nightly miri test -p asr-wfst --lib store; \
             cargo +nightly miri test -p asr-acoustic --lib dnn; } \
        || echo "miri: nightly component not installed; skipping (CI runs this)"

# ThreadSanitizer over the executor and runtime concurrency suites
# (needs nightly + rust-src for -Z build-std; CI runs this).
tsan:
    @rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src.*(installed)' \
        && { RUSTFLAGS="-Z sanitizer=thread" cargo +nightly test -Z build-std \
                 --target x86_64-unknown-linux-gnu -p asr-decoder --lib pool; \
             RUSTFLAGS="-Z sanitizer=thread" cargo +nightly test -Z build-std \
                 --target x86_64-unknown-linux-gnu -p asr-repro --lib runtime; } \
        || echo "tsan: nightly rust-src not installed; skipping (CI runs this)"

# The full verification gate: custom lint, exhaustive model check, then
# the tier-1 build+test suite.
verify: lint model-check test

# Builds the standalone BENCHMARK.json crate (its own workspace, which
# the root build never compiles) against the working tree, runs its unit
# tests, then its smoke suite: every workload once, outputs checked.
# Catches a public-API change that breaks the benchmark before the
# acceptance pipeline does.
bench-check:
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --smoke

# Alternating A/B pairs of one BENCHMARK.json workload: the commit
# `parent` (exported with `git archive` into target/ab/<sha>/ and built
# there once) against the working tree. Seeds 1..pairs, odd seeds run the
# parent first and even seeds the change; prints `frames_per_s` per pair,
# each side's median and quartiles, and the verdict of the
# choosing-metrics rule: a gain needs wins in >= 9/10 of the pairs run
# and a median gap wider than the parent's own interquartile range.
ab parent workload pairs="10":
    #!/usr/bin/env bash
    set -euo pipefail
    sha=$(git rev-parse --verify '{{parent}}^{commit}')
    dir=target/ab/$sha
    if [ ! -x "$dir/benchmark/target/release/asr-benchmark" ]; then
        rm -rf "$dir" && mkdir -p "$dir"
        git archive "$sha" | tar -x -C "$dir"
        cargo build --release --quiet --offline --manifest-path "$dir/benchmark/Cargo.toml"
    fi
    cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
    seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
    fps() { # <binary>: frames_per_s of one correct run at seed $seed
        "$1" --workload '{{workload}}' --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null \
            | sed -n '$s/.*"correct": true.*"frames_per_s": {"value": \([0-9.eE+-]*\).*/\1/p'
    }
    for seed in $(seq 1 '{{pairs}}'); do
        if [ $((seed % 2)) -eq 1 ]; then
            a=$(fps "$dir/benchmark/target/release/asr-benchmark")
            b=$(fps benchmark/target/release/asr-benchmark)
        else
            b=$(fps benchmark/target/release/asr-benchmark)
            a=$(fps "$dir/benchmark/target/release/asr-benchmark")
        fi
        [ -n "$a" ] && [ -n "$b" ] || { echo "seed $seed: a run failed or was incorrect" >&2; exit 1; }
        echo "$seed $a $b"
    done | awk -v w='{{workload}}' '
        function quantile(v, n, p,    pos, lo) {
            pos = 1 + (n - 1) * p; lo = int(pos)
            return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        function summary(name, v, n,    i, j, x) {
            for (i = 2; i <= n; i++) { # insertion sort: asort is gawk-only
                x = v[i]
                for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
                v[j + 1] = x
            }
            printf "%-7s median %.1f  quartiles %.1f .. %.1f\n", name, quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75)
        }
        {
            n++; parent[n] = $2 + 0; change[n] = $3 + 0
            winner = $3 > $2 ? "change" : $3 < $2 ? "parent" : "tie"
            wins += winner == "change"
            printf "%s seed %d: parent %.1f  change %.1f  frames_per_s  -> %s\n", w, $1, $2, $3, winner
        }
        END {
            summary("parent", parent, n); summary("change", change, n)
            gap = quantile(change, n, 0.5) - quantile(parent, n, 0.5)
            iqr = quantile(parent, n, 0.75) - quantile(parent, n, 0.25)
            shown = wins * 10 >= n * 9 && gap > iqr
            printf "change wins %d of %d pairs; median gap %+.1f (%+.1f%% of parent) vs parent IQR %.1f: %s\n", wins, n, gap, 100 * gap / quantile(parent, n, 0.5), iqr, shown ? "gain shown" : "no gain shown"
        }'

# Tracked Rust lines outside benchmark/, per crate and in total (the
# ROADMAP's "net reduction" trend; count after `cargo fmt`).
loc:
    @git ls-files '*.rs' | grep -v '^benchmark/' | xargs wc -l | awk '$2 != "total" { split($2, p, "/"); k = p[1] == "crates" ? "crates/" p[2] : "root"; n[k] += $1; t += $1 } END { for (k in n) print n[k], k; print t, "total" }' | sort -k2

# Decode-throughput benchmark: token-table engine vs the HashMap
# reference; writes BENCH_decode.json at the repo root.
bench-decode:
    cargo run --release -p asr-bench --bin bench_decode

# Open-loop overload harness: Poisson arrivals at 1x/2x the calibrated
# saturation rate against fixed-beam vs QoS-degrading runtimes; splices a
# "load" section into BENCH_decode.json (bar: fixed p99 >= 3x QoS p99 at
# 2x, zero panics, shed counts reported).
bench-load:
    cargo run --release -p asr-bench --bin bench_load -- --arrivals 150 --loads 1,2

# Cross-session batched scoring benchmark: N concurrent sessions through
# the gather window (one block forward pass per window) vs per-session
# forward passes, byte-identity checked on every transcript; splices a
# "batch" section into BENCH_decode.json (bar: batched beats per-session
# frames/sec at 8+ concurrent sessions).
bench-batch:
    cargo run --release -p asr-bench --bin bench_batch

# Graph-store benchmark: v2 image load vs SortedWfst rebuild across graph
# sizes, plus a decode head-to-head over the image-backed vs owned graph;
# splices a "store" section into BENCH_decode.json (bar: 200k-state image
# load >= 10x faster than the builder, decode byte-identical).
bench-store:
    cargo run --release -p asr-bench --bin bench_store

# Front-end benchmark: streaming MFCC/scorer vs the batch path; splices a
# "frontend" section into BENCH_decode.json (bar: online <= 1.25x batch).
bench-frontend:
    cargo run --release -p asr-bench --bin bench_frontend

# Accelerator-simulator benchmark: all four design points on the pinned
# fixture, cycles/frame + RTF at the paper's 600 MHz clock, base-design
# counter deltas vs the pre-port (HashMap-era) simulator; splices an
# "accel" section into BENCH_decode.json and fails if any delta is
# non-zero.
bench-accel:
    cargo run --release -p asr-bench --bin bench_accel

# Rustdoc for the whole workspace, warnings denied (as CI runs it).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Criterion microbenchmarks (hardware building blocks + decoders).
bench-micro:
    cargo bench -p asr-bench --bench micro

# Per-figure experiment binaries land JSON under target/experiments/.
figures:
    cargo run --release -p asr-bench --bin fig09_decoding_time -- --scale small
    cargo run --release -p asr-bench --bin fig10_speedup -- --scale small
