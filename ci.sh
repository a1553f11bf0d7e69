#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the full test suite.
# Run from the repo root. Fails on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings denied, deprecation allowlisted)"
# `-A deprecated`: the workspace deliberately documents the deprecated
# `TrustDaemon::spawn*` / `DaemonConnection` forwards (kept for one
# release as byte-identical shims over `DaemonBuilder`); their rustdoc
# must not fail the gate that exists to catch *accidental* warnings.
RUSTDOCFLAGS="-D warnings -A deprecated" cargo doc --workspace --no-deps --quiet

echo "==> cargo test"
cargo test --workspace -q

echo "==> observability crate tests"
cargo test -p nrslb-obs -q

echo "==> text-exposition smoke (registry render + daemon scrape)"
# e15 hard-asserts the required metric families are present in a live
# daemon scrape and that every exposition line parses; the small scale
# keeps the overhead measurement short (its numbers are recorded from
# full-scale runs in EXPERIMENTS.md, not here).
NRSLB_SCALE=30 cargo run --release -q -p nrslb-bench --bin e15_observability

echo "==> verdict-cache equivalence + 16-thread stress tests"
cargo test -p nrslb-core --test verdict_cache -q

echo "==> daemon throughput smoke (release, bounded, asserted)"
# Bounded e16 run: hard-asserts the sharded cache does not lose to the
# single-lock ablation at 8 clients, the warm signature-memo path is
# >= 2x cold, and batching is not slower than single requests. The
# committed BENCH_e16.json records full-scale numbers; the smoke writes
# its report to a scratch path so CI never clobbers them.
NRSLB_E16_ASSERT=1 NRSLB_SCALE=12 NRSLB_JSON="$(mktemp)" \
    cargo run --release -q -p nrslb-bench --bin e16_throughput

echo "==> allocation-budget smoke (release, bounded, asserted)"
# Bounded e17 run: hard-asserts the warm verdict path (held session
# re-evaluating through its scratch arena) stays under a fixed gross
# allocation bound per verdict — the interned core's zero-allocation
# claim, observed at the allocator. Report goes to a scratch path so
# CI never clobbers the committed BENCH_e17.json.
NRSLB_E17_ASSERT=1 NRSLB_SCALE=12 NRSLB_JSON="$(mktemp)" \
    cargo run --release -q -p nrslb-bench --bin e17_alloc_throughput

echo "==> reactor connection-scaling smoke (release, bounded, asserted)"
# Bounded e18 run: the reactor engine must hold 1k concurrent keep-alive
# connections (every one proving liveness with a correct round trip)
# and its 8-driver warm throughput must not lose to the PR6
# thread-per-connection engine measured back-to-back in the same
# process (single-core floor 0.85, multi-core floor 1.0). Full-scale
# numbers (10k-connection axis) live in the committed BENCH_e18.json;
# the smoke writes to a scratch path.
NRSLB_E18_ASSERT=1 NRSLB_E18_MAX_CONNS=1024 NRSLB_JSON="$(mktemp)" \
    cargo run --release -q -p nrslb-bench --bin e18_connections

echo "==> engine parity + reactor torture tests"
cargo test -p nrslb-core --test daemon_parity --test reactor_torture -q

echo "==> feed-server parity + keep-alive torture tests"
cargo test -p nrslb-rsf --test feed_parity --test feed_torture -q

echo "==> feed distribution-node smoke (release, bounded, asserted)"
# Bounded e21 run: the reactor-backed distribution node must hold 1k
# keep-alive subscriber connections (each proving liveness with a
# correct idle re-poll), beat the thread-per-connection feed server on
# warm re-poll throughput, serve re-polls inline on the event loop
# (inline counter > 0), and the fused inline cost guard must hold the
# 8-client warm daemon reactor/thread-pool ratio at >= 0.95 single-core
# (>= 1.0 multi-core). Full-scale numbers (10k-connection axis) live in
# the committed BENCH_e21.json; the smoke writes to a scratch path.
NRSLB_E21_ASSERT=1 NRSLB_E21_MAX_CONNS=1024 NRSLB_JSON="$(mktemp)" \
    cargo run --release -q -p nrslb-bench --bin e21_feed_node

echo "==> differential oracle smoke (fixed seed)"
# Bounded run: >=1,000 cross-path (chain, GCC, usage) checks PLUS
# >=1,000 incremental-vs-scratch Datalog maintenance checks (the
# apply_delta oracle arm, both policies); exits non-zero and prints the
# failing NRSLB_SIM_SEED on any disagreement, with the JSON repro
# dumped under reports/.
NRSLB_SIM_SEED=0xd1ff NRSLB_SCALE=120 \
    cargo run --release -q -p nrslb-bench --bin e14_differential

echo "==> incremental-maintenance proptests (counting + DRed vs scratch)"
cargo test -p nrslb-datalog --test incremental_props -q

echo "==> taint-keyed verdict invalidation tests"
cargo test -p nrslb-core --test taint_invalidation -q

echo "==> incremental maintenance smoke (release, bounded, asserted)"
# Bounded e19 run: hard-asserts the taint-keyed serving arm delivers
# >= 2x the full-clear arm's verdicts/s under per-round publisher
# deltas, and that apply_delta does not lose to from-scratch
# re-evaluation at the Datalog layer. The committed BENCH_e19.json
# records full-scale numbers; the smoke writes to a scratch path.
NRSLB_E19_ASSERT=1 NRSLB_SCALE=12 NRSLB_JSON="$(mktemp)" \
    cargo run --release -q -p nrslb-bench --bin e19_incremental

echo "==> Shamir field-axiom + roundtrip proptests"
cargo test -p nrslb-crypto --test shamir_field --test shamir_roundtrip -q

echo "==> SHA-256 kernel parity + HBS/Merkle known-answer tests"
# SHA-256 compression is picked at run time: the x86_64 SHA-extension
# kernel when the CPU has it, the scalar code otherwise. The parity tests
# run every input through each arm this host has and print a line when
# the accelerated arm is skipped; the known-answer tests pin HBS keys and
# signatures, the PRF and Merkle proofs to values from the scalar code.
if grep -qw sha_ni /proc/cpuinfo 2>/dev/null; then
    echo "host CPU has SHA extensions (sha_ni): both kernels tested"
else
    echo "host CPU has no SHA extensions: scalar kernel only"
fi
cargo test -p nrslb-crypto --lib -q sha256:: -- --nocapture
cargo test -p nrslb-crypto --test golden_vectors -q

echo "==> quorum adversarial + wire proptests"
cargo test -p nrslb-rsf --test quorum_adversarial --test proptest_quorum_wire -q

echo "==> compromised-minority quorum smoke (release, bounded, asserted)"
# Bounded e20 run: an attacker holding k-1 of the quorum's signers
# stages >= 200 forged-checkpoint presentations through the ecosystem
# sim — zero may be accepted, and the failing NRSLB_SIM_SEED is printed
# on violation. Also hard-asserts the quorum arm's warm (idle re-poll)
# sync path stays within 5% of the single-signer ablation. Full-scale
# numbers live in the committed BENCH_e20.json; the smoke writes to a
# scratch path.
NRSLB_E20_ASSERT=1 NRSLB_SCALE=12 NRSLB_JSON="$(mktemp)" \
    cargo run --release -q -p nrslb-bench --bin e20_quorum

echo "==> CI green"
