#!/usr/bin/env bash
# Codegen proof that the structured event pipeline is zero-cost when off.
#
# The simulation models are generic over `starlite::EventSink`; the
# default instantiation uses `NullSink`, whose `EventSink::ENABLED`
# associated const is `false`. Every emit / journal-drain path is gated
# on that const, so the optimiser must delete the entire instrumentation
# layer from the NullSink monomorphisations.
#
# This script checks the claim against the emitted LLVM IR:
#
#   1. The `rtlock` library IR (which contains the NullSink
#      monomorphisations of both simulators, instantiated by the
#      non-generic `run_transactions*` wrappers) must contain ZERO
#      references to the sink-layer drain helpers: the site engine's
#      protocol and CPU journal drains and the distributed driver's
#      network journal drain. The only journal
#      symbols allowed are the lock-table drains inside the `dyn
#      LockProtocol` implementations, which are runtime-gated on the
#      protocol's tracing flag and cannot be monomorphised away.
#
#   2. As a positive control, the `rtlock-bench` library IR (whose
#      non-generic sweep entry points instantiate the traced sinks for
#      `--trace` / `--check`) must still contain those helpers — proving
#      the grep would catch them if they survived in the null path.
set -euo pipefail
cd "$(dirname "$0")/.."

SINK_HELPERS='drain_protocol|flush_cpu_journals|flush_net_journal'

echo "sink-codegen: emitting LLVM IR for the rtlock library (NullSink instantiations)"
rm -f target/release/deps/rtlock-*.ll
touch crates/core/src/lib.rs # force re-emission even on a fresh build
cargo rustc --release -q -p rtlock --lib -- --emit=llvm-ir
lib_ll=$(ls -t target/release/deps/rtlock-*.ll | head -1)

hits=$(grep -cE "${SINK_HELPERS}" "${lib_ll}" || true)
if [ "${hits}" -ne 0 ]; then
    echo "sink-codegen: FAIL - ${hits} sink drain reference(s) survive in ${lib_ll}:" >&2
    grep -nE "${SINK_HELPERS}" "${lib_ll}" | head >&2
    exit 1
fi
echo "sink-codegen: OK - no sink drain helpers in the NullSink library IR"

echo "sink-codegen: emitting LLVM IR for rtlock-bench (traced instantiations, positive control)"
rm -f target/release/deps/rtlock_bench-*.ll
touch crates/bench/src/lib.rs
cargo rustc --release -q -p rtlock-bench --lib -- --emit=llvm-ir
bin_ll=$(ls -t target/release/deps/rtlock_bench-*.ll | head -1)

control=$(grep -cE "${SINK_HELPERS}" "${bin_ll}" || true)
if [ "${control}" -eq 0 ]; then
    echo "sink-codegen: FAIL - positive control found no drain helpers in ${bin_ll};" >&2
    echo "sink-codegen: the grep pattern no longer matches real symbols" >&2
    exit 1
fi
echo "sink-codegen: OK - positive control sees ${control} drain reference(s) in the traced binary"
echo "sink-codegen: PASS"
