#!/usr/bin/env bash
# Verifies the blocked distance kernels actually autovectorize: builds the
# `disasm_probe` example in release mode and asserts the probe symbols
# contain packed-double SIMD arithmetic (addpd/mulpd/subpd or their VEX/FMA
# forms), not just scalar *sd instructions.
#
# The kernels commit to a fixed summation order (4 lanes, documented in
# crates/neighbors/src/dist.rs); this script is the other half of that
# bargain — proof the fixed order still buys packed code on the current
# toolchain. Run it after touching dist.rs or bumping the toolchain.
#
#   scripts/check_vectorization.sh [--quiet]
set -euo pipefail
cd "$(dirname "$0")/.."

quiet=0
[ "${1:-}" = "--quiet" ] && quiet=1

cargo build --offline --release -p iim-neighbors --example disasm_probe >/dev/null

bin=target/release/examples/disasm_probe
[ -x "$bin" ] || { echo "error: $bin not built" >&2; exit 1; }

# Packed-double arithmetic, SSE2 (addpd) or AVX (vaddpd) or FMA
# (vfmadd231pd etc.). Scalar code would only emit the *sd forms.
packed_re='v?(add|sub|mul)pd|vfn?m(add|sub)[0-9]*pd'

disasm_sym() {
    objdump -d --demangle "$bin" | awk -v sym="$1" '
        $0 ~ ("<.*" sym ".*>:") {on=1; next}
        on && /^[0-9a-f]+ </ {on=0}
        on {print}
    '
}

fail=0
# Dense kernels: contiguous loads, must compile to packed-double SIMD.
for sym in probe_sq_dist_f probe_sq_dist_many probe_sq_dist_many_fixed4; do
    asm=$(disasm_sym "$sym")
    if [ -z "$asm" ]; then
        echo "FAIL: symbol $sym not found in $bin" >&2
        fail=1
        continue
    fi
    packed=$(grep -cE "$packed_re" <<<"$asm" || true)
    if [ "$packed" -eq 0 ]; then
        echo "FAIL: $sym contains no packed-double SIMD ($packed_re)" >&2
        [ "$quiet" = 1 ] || grep -E 'pd|sd' <<<"$asm" | head -20 >&2
        fail=1
    else
        echo "OK: $sym — $packed packed-double instruction(s)"
    fi
done

# Gather kernel: indexed loads through `attrs` cannot use packed loads at
# baseline x86-64, so the 4-lane structure shows up as instruction-level
# parallelism instead — at least 4 independent scalar addsd chains in the
# unrolled body. A de-blocked (single-accumulator) regression would show
# exactly 1.
asm=$(disasm_sym probe_sq_dist_on)
if [ -z "$asm" ]; then
    echo "FAIL: symbol probe_sq_dist_on not found in $bin" >&2
    fail=1
else
    adds=$(grep -cE 'v?addsd' <<<"$asm" || true)
    if [ "$adds" -lt 4 ]; then
        echo "FAIL: probe_sq_dist_on has $adds addsd — 4-lane unroll collapsed" >&2
        [ "$quiet" = 1 ] || grep -E 'sd' <<<"$asm" | head -20 >&2
        fail=1
    else
        echo "OK: probe_sq_dist_on — $adds scalar adds (gather path, 4-lane ILP)"
    fi
fi

exit $fail
