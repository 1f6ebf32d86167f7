# Developer entry points for the MICRO 2016 ASR accelerator reproduction.
# Usage: `just <target>` (or copy the command lines directly; everything is
# plain cargo, offline, no external dependencies).

# Build everything in release mode.
build:
    cargo build --release

# Run the full workspace test suite (tier-1 verify). Every crate's
# suite runs even after one fails; any failure still fails the recipe.
test:
    cargo build --release && cargo test -q --no-fail-fast

# Formatting and lints, as CI runs them.
check:
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings

# The repo's custom static-analysis pass (asr-lint): SAFETY comments on
# every unsafe, Ordering/raw-pointer allowlists, no-panic hot paths,
# repr(C) size/align asserts, the knob census, dangling doc citations,
# a non-test caller (or an allowlist reason) for every public library
# item, and no stale allowlist entry. Prints the public library item
# count; exits non-zero on any finding.
lint:
    cargo run --release -p asr-verify --bin asr-lint .

# Exhaustive model checking of the executor: the checker's own litmus
# self-tests (correct idioms pass, seeded bugs are caught), then the pool
# harnesses (the last unclaimed chunk going to one of a lane and the
# stealing-back submitter with no lane claim after the join, and its
# seeded twin that skips the withdrawal; eventcount lost wakeup for a
# lane at poll budget 0 and for a joining submitter at budgets 0 and 1;
# batch slot generations) compiled against the shadow sync facade.
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
             cargo +nightly miri test -p asr-wfst --lib store; } \
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
# parent first and even seeds the change; prints `metric` per pair, then
# each side's median and quartiles for every end-to-end metric the runs
# report (so the "must not move" rows come from the same pairs), and the
# verdict of the choosing-metrics rule on `metric`: a gain needs at least
# ten pairs, wins in >= 9/10 of them and a median gap wider than the
# parent's own interquartile range (fewer pairs print "no verdict").
ab parent workload pairs="10" metric="frames_per_s":
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
    better=$(grep -A 3 '"name": "{{metric}}"' BENCHMARK.json | sed -n 's/.*"better": "\([a-z]*\)".*/\1/p' | head -n 1) || true
    [ -n "$better" ] || { echo "{{metric}} is not a metric of BENCHMARK.json" >&2; exit 1; }
    run() { # <side> <binary>: one "seed side metric value" line per metric of one correct run at seed $seed
        "$2" --workload '{{workload}}' --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null \
            | sed -n '${/"correct": true/p;}' | grep -o '"[a-z0-9_]*": {"value": [0-9.eE+-]*' \
            | sed "s/^\"\(.*\)\": {\"value\": /$seed $1 \1 /"
    }
    for seed in $(seq 1 '{{pairs}}'); do
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$dir/benchmark/target/release/asr-benchmark"
            run change benchmark/target/release/asr-benchmark
        else
            run change benchmark/target/release/asr-benchmark
            run parent "$dir/benchmark/target/release/asr-benchmark"
        fi
    done | awk -v w='{{workload}}' -v metric='{{metric}}' -v better="$better" -v pairs='{{pairs}}' '
        function quantile(v, n, p,    pos, lo) {
            pos = 1 + (n - 1) * p; lo = int(pos)
            return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        function quartiles(side, name,    i, j, x, v) { # of the n runs: sets q[1..3]
            for (i = 1; i <= n; i++) { # insertion sort: asort is gawk-only
                x = val[side, name, i]
                for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
                v[j + 1] = x
            }
            for (i = 1; i <= 3; i++) q[i] = quantile(v, n, i / 4)
        }
        {
            val[$2, $3, $1] = $4 + 0
            if (!($3 in seen)) { seen[$3] = 1; names[++m] = $3 }
            if ($3 == metric && ("parent", metric, $1) in val && ("change", metric, $1) in val) {
                n++; p = val["parent", metric, $1]; c = val["change", metric, $1]
                winner = c == p ? "tie" : (c > p) == (better == "higher") ? "change" : "parent"
                wins += winner == "change"
                printf "%s seed %d: parent %.4g  change %.4g  %s  -> %s\n", w, $1, p, c, metric, winner
            }
        }
        END {
            if (n != pairs) { print "a run failed, was incorrect or did not report " metric > "/dev/stderr"; exit 1 }
            for (k = 1; k <= m; k++) {
                quartiles("parent", names[k]); line = sprintf("%.4g  (%.4g .. %.4g)", q[2], q[1], q[3])
                if (names[k] == metric) { parent_median = q[2]; iqr = q[3] - q[1] }
                quartiles("change", names[k])
                if (names[k] == metric) gap = (q[2] - parent_median) * (better == "higher" ? 1 : -1)
                printf "%-18s parent median %s   change median %.4g  (%.4g .. %.4g)\n", names[k], line, q[2], q[1], q[3]
            }
            if (n < 10) verdict = sprintf("no verdict: %d pairs, the rule needs at least 10", n)
            else verdict = wins * 10 >= n * 9 && gap > iqr ? "gain shown" : "no gain shown"
            printf "%s (%s is better): change wins %d of %d pairs; median gain %.4g (%+.1f%% of parent) vs parent IQR %.4g: %s\n", metric, better, wins, n, gap, 100 * gap / parent_median, iqr, verdict
        }'

# Where a search frame goes: frontier / emitting relax / cap cutoff /
# epsilon closure / lattice GC in us per frame, with tokens and arcs per
# stage, on the benchmark's two search shapes (200k states, cap 1500;
# 50k, cap 2000) and their beam-only counterparts, and per shape the
# token trace: entries pushed per frame (one per word-carrying token that
# expands, next to the tokens stored) and its peak length between two
# lattice GCs, in entries and in KiB at 8 B an entry; and the peak of the
# one token list a decode keeps, in live tokens and in KiB at 16 B a
# token; then what sharing a thread costs: us per step of 16 decodes at
# 50k states, cap 2000, stepped round-robin (the voice_16s_batched
# pattern) and back to back.
# The harness is an ignored test that runs the production search_frame
# through a RecordingProbe (stage marks and per-frame counters), and
# prints the probe's stage sum beside a wall clock around search_frame.
stages:
    cargo test --release -q -p asr-decoder --lib search::tests::stage_split -- --ignored --nocapture

# What the executor adds to one overlapped frame: an ignored test times
# `fork_join(2)` of two calibrated spin chunks (70 || 25 us and
# 25 || 70 us, today's search step and scoring row, 5 us between joins)
# on the shipped `lanes(2)` pool, then 70 || 25 from two submitter
# threads sharing it (a shape no workload has), and prints per join the
# wall us beyond the longer chunk, the CPU us beyond the work spun
# (summed /proc/self/task/*/schedstat), lane and submitter parks, and
# steal-backs (~5 s).
handoff:
    cargo test --release -q -p asr-decoder --lib pool::tests::handoff_cost -- --ignored --nocapture

# What each compiled width of the dense kernel costs: an ignored test
# times kernel-only us per row for every instantiation this CPU runs
# (baseline, AVX2, AVX-512) on the benchmark's three layer shapes over
# rendered MFCC rows, plus log-softmax, and names the one the layers use.
# A width that stops vectorizing shows as a row no faster than the
# baseline's (~1 s).
kernels:
    cargo test --release -q -p asr-acoustic --lib dnn::tests::kernel_timings -- --ignored --nocapture

# Tier-1 `n` times back to back on one build: how many runs were clean,
# then every test that failed, with the number of runs it failed in (a
# run that failed outside any test is counted on a line of its own). The
# flake census for a deterministic tier-1.
tier1-repeat n="20":
    #!/usr/bin/env bash
    set -uo pipefail
    cargo build --release && cargo test -q --no-run || exit 1
    log=$(mktemp) && failed=$(mktemp) || exit 1
    clean=0
    for run in $(seq 1 '{{n}}'); do
        if cargo test -q --no-fail-fast >"$log" 2>&1; then
            clean=$((clean + 1))
        elif ! awk '/^---- .* stdout ----$/ { sub(/^---- /, ""); sub(/ stdout ----$/, ""); print; n++ }
                     END { exit n == 0 }' "$log" >>"$failed"; then
            echo "(a failure outside any test)" >>"$failed"
        fi
    done
    echo "{{n}} runs, $clean clean"
    sort "$failed" | uniq -c | sort -rn
    rm -f "$log" "$failed"

# Tracked Rust lines outside benchmark/ (the ROADMAP's "net reduction"
# trend; count after `cargo fmt`): per crate and in total, code, tests
# and both. A line is a test line if its file is under a `tests/`
# directory, is named `tests.rs` or is in crates/testkit, or if it lies
# in an inline test module: a `#[cfg(test)]` line followed by a
# `mod name {` line, through the `}` that closes it at the attribute's
# indentation. Every other line is code.
loc:
    #!/usr/bin/env bash
    set -euo pipefail
    printf "%8s %8s %8s  %s\n" code tests total crate
    git ls-files '*.rs' | grep -v '^benchmark/' | xargs awk '
        FNR == 1 {
            split(FILENAME, p, "/"); k = p[1] == "crates" ? "crates/" p[2] : "root"
            whole = FILENAME ~ /(^|\/)tests\// || FILENAME ~ /(^|\/)tests\.rs$/ || k == "crates/testkit"
            block = 0; held = 0
        }
        function add(is_test) { if (is_test) tests[k]++; else code[k]++; seen[k] = 1 }
        {
            if (held) { # the line after a #[cfg(test)]: does a module open?
                held = 0
                if (!whole && $0 ~ ("^" indent "mod [A-Za-z0-9_]+ \\{$")) { block = 1; add(1) } else add(0)
            }
            if (block) { add(1); if ($0 == indent "}") block = 0; next }
            if (!whole && $0 ~ /^[ \t]*#\[cfg\(test\)\]$/) { held = 1; indent = $0; sub(/#.*/, "", indent); next }
            add(whole)
        }
        END {
            for (c in seen) { printf "%8d %8d %8d  %s\n", code[c], tests[c], code[c] + tests[c], c; tc += code[c]; tt += tests[c] }
            printf "%8d %8d %8d  %s\n", tc, tt, tc + tt, "total"
        }' | sort -k4

# Open-loop overload harness: Poisson arrivals at 1x/2x the calibrated
# saturation rate against an unlimited and an admission-limited
# (max_sessions 2) runtime; prints p50/p99 from scheduled arrival and
# shed counts per side, then the bounded_p99_under_overload, zero_panics
# and transcripts_unchanged flags, and fails if a worker panicked or a
# completed transcript differs from the full-beam reference. The one
# measurement of admission control.
bench-load:
    cargo run --release -p asr-bench --bin bench_load -- --arrivals 150 --loads 1,2

# Rustdoc for the whole workspace, warnings denied (as CI runs it).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Every figure binary at the small preset, as CI runs them (bench_load,
# with its own flags, is `bench-load`): each prints its table to stdout,
# its only output; stops at the first that fails (~20 s).
figures:
    #!/usr/bin/env bash
    set -euo pipefail
    for bin in crates/bench/src/bin/*.rs; do
        name=$(basename "$bin" .rs)
        [ "$name" = bench_load ] && continue
        cargo run --release --quiet -p asr-bench --bin "$name" -- --scale small
    done
