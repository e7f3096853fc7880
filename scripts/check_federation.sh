#!/usr/bin/env bash
# Federation-scale smoke gate: a 10⁴-client, 16-AP federation run on the
# strict-barrier sharded kernel must be
#
#   1. deterministic — the same seed produces bit-identical population
#      fingerprints on repeated runs, and
#   2. thread-invariant — the 2-worker-thread run matches the inline
#      (0-thread) sequential reference, the strict policy's core promise
#      at population scale, and
#   3. bounded — peak RSS is recorded via /usr/bin/time -v so a slab or
#      mailbox memory blow-up shows in the job log (reported, not gated:
#      allocator and libc differences move absolute RSS between hosts).
#
# Usage: scripts/check_federation.sh [build-dir] [clients]
#   (defaults: build-fed, 10000)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-fed}"
CLIENTS="${2:-10000}"
SEED=42

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target hotspot_cli >/dev/null

CLI="./$BUILD_DIR/examples/hotspot_cli"
OUT_DIR="$BUILD_DIR/fed_smoke"
rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

run_once() { # <threads> <tag>
    local threads="$1" tag="$2"
    local args=(--federation --aps 16 --shards 16 --threads "$threads"
                --clients "$CLIENTS" --duration 120 --seed "$SEED"
                --roaming 45 --admission defer --capacity 900
                --arrivals 2 --flash 40)
    if [[ -x /usr/bin/time ]]; then
        /usr/bin/time -v "$CLI" "${args[@]}" \
            >"$OUT_DIR/$tag.out" 2>"$OUT_DIR/$tag.time"
    else
        "$CLI" "${args[@]}" >"$OUT_DIR/$tag.out" 2>/dev/null
        echo "note: /usr/bin/time not available; RSS not recorded" \
            >"$OUT_DIR/$tag.time"
    fi
}

fingerprint_of() {
    grep -o 'fingerprint [0-9a-f]\{16\}' "$1" | awk '{print $2}'
}

echo "federation smoke: $CLIENTS clients, 16 APs, seed $SEED"
run_once 2 t2_a
run_once 2 t2_b
run_once 0 t0

FP_A="$(fingerprint_of "$OUT_DIR/t2_a.out")"
FP_B="$(fingerprint_of "$OUT_DIR/t2_b.out")"
FP_0="$(fingerprint_of "$OUT_DIR/t0.out")"
echo "fingerprints: 2-thread run A $FP_A, run B $FP_B, inline $FP_0"

if [[ -z "$FP_A" || "$FP_A" != "$FP_B" ]]; then
    echo "FAIL: same-seed 2-thread runs diverged ($FP_A vs $FP_B)" >&2
    exit 1
fi
if [[ "$FP_A" != "$FP_0" ]]; then
    echo "FAIL: 2-thread run diverged from the inline reference" \
         "($FP_A vs $FP_0)" >&2
    exit 1
fi

if ! grep -q 'conserved' "$OUT_DIR/t2_a.out" \
   || grep -q 'NOT CONSERVED' "$OUT_DIR/t2_a.out"; then
    echo "FAIL: burst conservation (admitted = completed + shed) violated" >&2
    exit 1
fi

for tag in t2_a t0; do
    rss_kb="$(grep -o 'Maximum resident set size (kbytes): [0-9]*' \
                   "$OUT_DIR/$tag.time" | grep -o '[0-9]*$' || true)"
    if [[ -n "$rss_kb" ]]; then
        echo "peak RSS ($tag): $((rss_kb / 1024)) MiB ($rss_kb kB)"
    fi
done

echo "federation smoke passed"
