#!/usr/bin/env bash
# Offline CI gate for the VPGA workspace.
#
# Runs the same checks a PR must pass, in order of increasing cost:
#   1. tracked-artifact guard     (nothing under target/ in the index)
#   2. cargo fmt --check          (formatting)
#   3. cargo clippy -D warnings   (lints, also with fault-inject on; skipped
#      if clippy is not installed)
#   4. cargo build --release      (whole workspace, all targets)
#   5. cargo test                 (whole workspace)
#   6. cargo test --features fault-inject   (fault-injection harness)
#   7. perfbench self-test        (Verilog write/read round trip == direct run)
#   8. audited tiny matrix        (debug assertions + inter-stage auditors),
#      and route legality: the tiny and small matrices (small in release)
#      must print 16 `route: legal` lines and no overflow. Medium stays
#      ungated: its network switch overflows until routing capacity is
#      sized to the design.
#   9. single-design flow golden  (vpga flow design fingerprint, tiny ALU)
#  10. kill-and-resume smoke      (interrupted checkpointed matrix resumes bit-identical)
#  11. interchange round-trip     (SDF/.vxdl emission verifies + checkpoints migrate)
#  12. .varch round-trip          (reloaded builtins hit the golden; malformed
#      and zero-area descriptions fail closed)
#  13. serve smoke                (cold/warm daemon matrix golden, SIGTERM drain
#      within 5 s, a misspelled flag fails closed before the daemon binds,
#      a daemon restarted over the same --checkpoint-dir with the default
#      worker pool answers fully warm)
#  14. serve load harness         (the defaults, 1000 mixed chaos jobs from 8
#      clients, vs batch reference)
#  15. cargo bench, smoke mode    (one sample per bench, catches bit-rot)
#
# The workspace has no network dependencies: rand/proptest/criterion are
# vendored as path crates under vendor/, so every step works offline.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s\n' "$*"; }

# Every step's temporary files live under one work dir. The one exit trap
# removes it and stops a serve daemon that is still running (a failed
# serve check exits with its daemon up), on success and failure alike.
WORK=$(mktemp -d)
SRVPID=
cleanup() {
    if [ -n "$SRVPID" ]; then
        kill -KILL "$SRVPID" 2>/dev/null || true
        wait "$SRVPID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

step "no build artifacts tracked"
if git ls-files -- target/ | grep -q .; then
    echo "error: build artifacts are tracked under target/ — run: git rm -r --cached target/" >&2
    git ls-files -- target/ | head >&2
    exit 1
fi

step "cargo fmt --check"
cargo fmt --all --check

if cargo clippy --version >/dev/null 2>&1; then
    step "cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets --release -- -D warnings
    # The stage graph (flow/src/stages/), checkpoint code, and the serve
    # daemon gate extra paths behind fault-inject; lint them with the
    # feature on too.
    step "cargo clippy -p vpga -p vpga-flow -p vpga-serve --features fault-inject -- -D warnings"
    cargo clippy -p vpga -p vpga-flow -p vpga-serve --all-targets --features fault-inject --release -- -D warnings
else
    step "clippy not installed; skipping lint step"
fi

step "cargo build --release --workspace"
cargo build --release --workspace --all-targets

step "cargo test --workspace"
cargo test --workspace -q

step "cargo test --features fault-inject (fault-injection harness)"
cargo test --features fault-inject -q

step "perfbench self-test (cargo test --manifest-path perfbench/Cargo.toml)"
# The benchmark's seed self-test writes the tiny designs as structural
# Verilog, reads them back, and checks every flow fingerprint against a
# direct run, so it pins read_verilog end to end. perfbench is a package
# of its own (its own workspace and lock file), hence the manifest path.
cargo test --offline --manifest-path perfbench/Cargo.toml

step "audited matrix run (debug assertions + inter-stage auditors, legal routes)"
# The fingerprint folds the pack/swap mover counters, so this also pins
# the packer and the PLB swap to the published golden bit-for-bit.
golden="matrix fingerprint: 0x01b3533959a44418"
# Fails unless a `--stats` matrix run ($2) printed one `route: legal` line
# for each of its 16 flows and no `route: overflow` line.
check_routes_legal() {
    legal=$(printf '%s\n' "$2" | grep -c '^ *route: legal$' || true)
    overflow=$(printf '%s\n' "$2" | grep -c '^ *route: overflow' || true)
    if [ "$legal" != 16 ] || [ "$overflow" != 0 ]; then
        echo "error: $1 matrix routes: $legal of 16 flows legal, $overflow overflowed" >&2
        printf '%s\n' "$2" | grep 'route: ' >&2
        exit 1
    fi
}
tiny=$(cargo run -q --bin vpga -- matrix --size tiny --jobs 2 --audit --stats)
audited=$(printf '%s\n' "$tiny" | grep '^matrix fingerprint:')
if [ "$audited" != "$golden" ]; then
    echo "error: audited matrix diverged from the golden: '$audited' != '$golden'" >&2
    exit 1
fi
check_routes_legal tiny "$tiny"
small=$(cargo run -q --release --bin vpga -- matrix --size small --jobs 2 --stats)
check_routes_legal small "$small"

step "single-design flow golden (vpga flow, tiny ALU on granular)"
# `vpga flow` runs one design through run_design, which overlaps the
# flow-a and flow-b back-ends on two threads; its fingerprint must stay
# the serial flow's, as the matrix's does.
FLW=$WORK/flow
mkdir "$FLW"
cargo run -q --bin vpga -- gen alu --size tiny -o "$FLW/alu.v" 2>/dev/null
flow_golden="design fingerprint: 0x1dfd59794de56c2a"
flow_fp=$(cargo run -q --bin vpga -- flow "$FLW/alu.v" --arch granular \
    | grep '^design fingerprint:')
if [ "$flow_fp" != "$flow_golden" ]; then
    echo "error: vpga flow diverged from the golden: '$flow_fp' != '$flow_golden'" >&2
    exit 1
fi

step "kill-and-resume smoke (interrupted checkpointed matrix resumes bit-identical)"
CKPT=$WORK/resume
mkdir "$CKPT"
baseline=$(cargo run -q --bin vpga -- matrix --size tiny --jobs 2 \
    | grep '^matrix fingerprint:')
# Interrupt: an injected panic kills one cell mid-matrix while every
# completed stage persists to the checkpoint directory...
if VPGA_FAULT="route@alu/granular/a=panic" \
    cargo run -q --features fault-inject --bin vpga -- \
    matrix --size tiny --jobs 2 --checkpoint-dir "$CKPT" >/dev/null 2>&1; then
    echo "error: fault-injected matrix run unexpectedly succeeded" >&2
    exit 1
fi
# ...and the resumed run must land on the uninterrupted fingerprint.
resumed=$(cargo run -q --features fault-inject --bin vpga -- \
    matrix --size tiny --jobs 2 --checkpoint-dir "$CKPT" --resume \
    | grep '^matrix fingerprint:')
if [ "$baseline" != "$resumed" ]; then
    echo "error: resumed matrix diverged: '$resumed' != '$baseline'" >&2
    exit 1
fi

step "interchange round-trip (emit SDF/.vxdl, verify fixpoints, migrate checkpoints)"
# Golden-file byte diffs already ran under `cargo test` (tests/goldens/);
# this exercises the full emit → reparse → re-emit path on fresh artifacts
# and the binary-checkpoint → .vxdl migration with fingerprint equality.
IVK=$WORK/interchange
mkdir "$IVK"
cargo run -q --bin vpga -- matrix --size tiny --jobs 2 \
    --checkpoint-dir "$IVK/ckpt" --emit-sdf "$IVK/sdf" --emit-xdl "$IVK/xdl" >/dev/null
cargo run -q --bin vpga -- verify-interchange "$IVK/sdf" >/dev/null
cargo run -q --bin vpga -- verify-interchange "$IVK/xdl" >/dev/null
cargo run -q --bin vpga -- migrate-checkpoints "$IVK/ckpt" --size tiny >/dev/null

step "architecture-description round-trip (export builtins, reload, golden matrix)"
# The builtin fabrics are themselves loaded from embedded .varch data;
# exporting them, reloading through --arch-file, and re-running the tiny
# matrix must land on the same golden fingerprint — the fabrics-as-data
# path has no bit left to hide in code.
ARCH=$WORK/arch
mkdir "$ARCH"
cargo run -q --bin vpga -- export-arch granular -o "$ARCH/granular.varch" 2>/dev/null
cargo run -q --bin vpga -- export-arch lut -o "$ARCH/lut.varch" 2>/dev/null
reloaded=$(cargo run -q --bin vpga -- matrix --size tiny --jobs 2 \
    --arch-file "$ARCH/granular.varch" --arch-file "$ARCH/lut.varch" \
    | grep '^matrix fingerprint:')
if [ "$reloaded" != "$golden" ]; then
    echo "error: matrix from reloaded .varch files diverged: '$reloaded' != '$golden'" >&2
    exit 1
fi
# Malformed descriptions must fail closed with a positioned error, never
# run a matrix. A zero-area PLB is one: flow b would collapse onto one
# point and publish a die area of 0.
printf 'varch 1 broken\ncell oops\n' > "$ARCH/broken.varch"
sed 's/^area .*/area 0 0/' "$ARCH/granular.varch" > "$ARCH/zero-area.varch"
for bad in broken zero-area; do
    if out=$(cargo run -q --bin vpga -- matrix --size tiny \
        --arch-file "$ARCH/$bad.varch" 2>&1); then
        echo "error: malformed .varch ($bad) unexpectedly accepted" >&2
        exit 1
    elif ! printf '%s\n' "$out" | grep -q 'line [0-9]*, col [0-9]*'; then
        echo "error: malformed .varch ($bad) rejection lacks a positioned error: $out" >&2
        exit 1
    fi
done

step "serve smoke (cold/warm daemon matrix, golden fingerprint, SIGTERM drain)"
# The release binary is invoked directly (not through `cargo run`) so the
# SIGTERM below reaches the daemon itself, not a cargo wrapper.
VPGA_BIN=target/release/vpga
SRV=$WORK/serve
mkdir "$SRV"
# Fails closed: a misspelled flag is an error naming it, not a daemon
# started with the default (exit 124 would mean timeout killed a daemon).
rc=0
timeout 10 "$VPGA_BIN" serve --listen 127.0.0.1:0 --wokers 2 \
    >/dev/null 2>"$SRV/badflag.txt" || rc=$?
if [ "$rc" = 0 ] || [ "$rc" = 124 ] || ! grep -q -- '--wokers' "$SRV/badflag.txt"; then
    echo "error: serve with a misspelled flag exited $rc instead of naming it:" >&2
    cat "$SRV/badflag.txt" >&2
    exit 1
fi
golden="matrix fingerprint: 0x01b3533959a44418"
# The first daemon answers cold, then warm from its memory cache. A daemon
# restarted over the same checkpoint directory starts with a cold memory
# cache, but every front-end and result restores from the disk tier: no
# stage runs, and each restore counts as a hit. The restarted daemon runs
# the default pool (one worker per CPU, 2 to 4).
for daemon in first restarted; do
    PORT=$((20000 + RANDOM % 20000))
    if [ "$daemon" = first ]; then pool=(--workers 2); else pool=(); fi
    "$VPGA_BIN" serve --listen "127.0.0.1:$PORT" "${pool[@]}" \
        --checkpoint-dir "$SRV/ckpt" >"$SRV/summary.txt" 2>"$SRV/log.txt" &
    SRVPID=$!
    ready=0
    for _ in $(seq 1 100); do
        if "$VPGA_BIN" submit "127.0.0.1:$PORT" /healthz >/dev/null 2>&1; then
            ready=1
            break
        fi
        sleep 0.1
    done
    if [ "$ready" != 1 ]; then
        echo "error: $daemon daemon never became ready on port $PORT" >&2
        cat "$SRV/log.txt" >&2
        exit 1
    fi
    if [ "$daemon" = first ]; then runs="cold warm"; else runs=restarted; fi
    for run in $runs; do
        out=$("$VPGA_BIN" submit "127.0.0.1:$PORT" "/matrix?params=tiny")
        fp=$(printf '%s\n' "$out" | grep '^matrix fingerprint:')
        if [ "$fp" != "$golden" ]; then
            echo "error: $run daemon matrix diverged: '$fp' != '$golden'" >&2
            exit 1
        fi
        # Every run after the cold one must be served entirely from cache.
        if [ "$run" != cold ] && ! printf '%s\n' "$out" | grep -q '^cache hits=32/32$'; then
            echo "error: $run daemon matrix was not fully cache-hit:" >&2
            printf '%s\n' "$out" | grep '^cache hits=' >&2
            exit 1
        fi
    done
    kill -TERM "$SRVPID"
    # An idle daemon sees SIGTERM within 100 ms; one that has not exited
    # within 5 s is stuck (say, blocked in accept), and `wait` would hang.
    for _ in $(seq 1 50); do
        kill -0 "$SRVPID" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$SRVPID" 2>/dev/null; then
        echo "error: $daemon daemon still running 5 s after SIGTERM; its log:" >&2
        cat "$SRV/log.txt" >&2
        exit 1
    fi
    rc=0
    wait "$SRVPID" || rc=$?
    SRVPID=
    if [ "$rc" != 0 ]; then
        echo "error: $daemon daemon did not drain cleanly on SIGTERM" >&2
        cat "$SRV/summary.txt" "$SRV/log.txt" >&2
        exit 1
    fi
    if ! grep -q '^drained: .*cache_valid=true' "$SRV/summary.txt"; then
        echo "error: $daemon drain summary missing or cache invalid:" >&2
        cat "$SRV/summary.txt" >&2
        exit 1
    fi
done

step "serve load harness (release, default settings vs batch reference)"
# No flags: the run exercises BenchConfig::default(), the settings
# `vpga help` prints (1000 mixed chaos jobs from 8 clients).
"$VPGA_BIN" serve-bench

step "cargo bench (smoke mode, 1 sample per bench)"
# --workspace picks up every [[bench]] target in crates/bench; the one
# STA pass is timed by cad_bench's timing/sta_post_route.
CRITERION_SMOKE=1 cargo bench --workspace

printf '\nall checks passed\n'
