#!/usr/bin/env bash
# CI gate: build, tier-1 tests, full workspace tests, docs, formatting, lints.
#
# Usage: scripts/ci.sh [--quick]
#   --quick   skip the full-workspace test pass (tier-1 only)
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

step() { printf '\n==> %s\n' "$*"; }

# replay_equal <name>: the regenerated $replay_dir/<name>.json must equal
# the committed results/<name>.json in every value, apart from the
# host-specific `_meta` and fig7b's host-clock `sgt_wallclock_ms`.
replay_equal() {
    python3 -c "
import json, sys
host_clock = {'fig7b': ['sgt_wallclock_ms']}.get(sys.argv[3], [])
def load(p):
    d = json.load(open(p))
    if isinstance(d, dict):
        d.pop('_meta', None)
    for row in d if isinstance(d, list) else []:
        for k in host_clock:
            row.pop(k, None)
    return d
assert load(sys.argv[1]) == load(sys.argv[2]), f'{sys.argv[1]} differs from the replay'
" "results/$1.json" "$replay_dir/$1.json" "$1" || {
        echo "replay: $1.json no longer reproduces" >&2
        exit 1
    }
}

step "cargo build --release --workspace"
cargo build --release --workspace

step "perfbench builds unedited against the workspace"
# perfbench, the benchmark BENCHMARK.json runs, is a package of its own that
# calls the crates' public API, so an API change that breaks it fails here.
# It builds from a temporary copy beside perfbench/ (its path dependencies
# resolve as from perfbench/), because the build rewrites the package's
# Cargo.lock; the checkout's perfbench/ must come out as it went in.
pb_before=$(git status --porcelain perfbench)
pb_dir=$(mktemp -d "$PWD/.perfbench-ci.XXXXXX")
trap 'rm -rf "$pb_dir"' EXIT
cp -R perfbench/Cargo.toml perfbench/Cargo.lock perfbench/src "$pb_dir"/
cargo build --release --offline --manifest-path "$pb_dir/Cargo.toml" \
    --target-dir target/perfbench
rm -rf "$pb_dir"
trap - EXIT
[[ "$(git status --porcelain perfbench)" == "$pb_before" ]] || {
    echo "perfbench build changed files under perfbench/" >&2
    exit 1
}

step "tier-1 tests (root package)"
cargo test --release -q

step "workspace tests with every memo hit and engine advance cross-checked"
# Under TCG_VERIFY=1 each launch-memo hit also simulates the launch in full
# and asserts that its stats equal the recorded ones (the kernel's plain
# loop computes the outputs on a miss as on a hit). Each Engine::advance also
# runs the full symmetry check, the from-scratch norms and the
# whole-translation validate, and asserts that they agree with its
# incremental ones; every spliced translation is validated whole too.
TCG_VERIFY=1 cargo test --release -q --workspace

if [[ $quick -eq 0 ]]; then
    step "workspace tests"
    cargo test --workspace -q
fi

step "chaos smoke: fixed-seed fault schedules through the CLI"
# Two deterministic schedules; training must complete (exit 0) and report
# the injected-fault accounting under both.
TCG_FAULT_RATE=0.05 TCG_FAULT_SEED=2023 \
    ./target/release/tcgnn train Pubmed/0.05 --epochs 3 | grep -q 'faults: '
TCG_FAULT_RATE=0.2 TCG_FAULT_SEED=4099 \
    ./target/release/tcgnn train Pubmed/0.05 --epochs 3 --backend dgl | grep -q 'faults: '
step "chaos integration tests"
cargo test --release -q --test chaos

step "serve smoke: dynamic batching + SGT translation cache through the CLI"
serve_out=$(./target/release/tcgnn serve Cora,Cora/2 --requests 48 --rate 2000 --epochs 2)
# The latency histogram must be populated...
lat_count=$(sed -n 's/.*"count": \([0-9]*\).*/\1/p' <<<"$serve_out" | head -1)
[[ -n "$lat_count" && "$lat_count" -ge 1 ]] || {
    echo "serve smoke: empty latency histogram" >&2
    exit 1
}
# ...and repeat dispatches must have hit the SGT cache at least once.
cache_hits=$(sed -n 's/.*"hits": \([0-9]*\).*/\1/p' <<<"$serve_out" | head -1)
[[ -n "$cache_hits" && "$cache_hits" -ge 1 ]] || {
    echo "serve smoke: no SGT cache hits" >&2
    exit 1
}

step "spmm smoke: every SpMM kernel runs through the CLI"
# One row per kernel the command lists, each named by its own name().
spmm_out=$(./target/release/tcgnn spmm Cora --dim 16)
spmm_rows=$(sed -n '/^kernel /,$p' <<<"$spmm_out" | tail -n +2 | grep -vc ' failed: ' || true)
[[ "$spmm_rows" -eq 7 ]] || {
    echo "spmm smoke: $spmm_rows kernel rows, expected 7" >&2
    exit 1
}

step "chaos serve: injected faults must degrade batches, never fail requests"
chaos_out=$(TCG_FAULT_RATE=0.2 TCG_FAULT_SEED=7 \
    ./target/release/tcgnn serve Cora --requests 32 --rate 1000 --epochs 2)
grep -q '"failed": 0,' <<<"$chaos_out" || {
    echo "chaos serve: requests failed under fault injection" >&2
    exit 1
}

step "simulator reference models: fast hot-path primitives vs their slow references"
# Flat epoch-stamped cache, arithmetic sector walk and branchless TF-32
# rounding must agree exactly with the reference models in tcg-oracle, and
# the register-blocked update GEMMs (X·W, Xᵀ·dY, dY·Wᵀ, TF-32) must equal the
# naive loop bit for bit on every vector ISA the host has, which training,
# serving and dist results rely on. TC-GNN SpMM and SDDMM on random
# one-window tiles with special values, and every TCU kernel's outputs
# (TC-GNN, hybrid, fused) on the oracle families, must match the
# staged-tile SpMM/SDDMM loops over the m16n16k8 reference bit for bit, on
# a memo miss and a memo hit.
cargo test --release -q -p tcg-oracle refmodel
cargo test --release -q -p tcg-tensor
cargo test --release -q -p tcg-kernels --test tcu_values

step "verify: oracle conformance matrix (every backend x kernel x family)"
# Full differential matrix against the golden oracle, plus the metamorphic
# suite; nonzero exit (with a minimized repro) on any divergence.
./target/release/tcgnn verify --seed 2023

step "parallel execution: determinism suite + conformance matrix at TCG_THREADS=4"
# The parallel launcher must be invisible: every kernel launches through
# Launcher::launch, which fans block bodies and per-block loops over the
# workers. The same conformance matrix and a chaos schedule must pass with
# 4 workers, and 8-vs-1-thread runs must be bitwise identical (logits,
# kernel reports, cost totals).
cargo test --release -q --test parallel_determinism
TCG_THREADS=4 cargo test --release -q -p tcg-gpusim --lib
# Kernel unit tests, the window-body and baseline charge pins (one body per
# window type, shared by the pure and hybrid launches; the figure-only
# baselines and the scatter SpMM) and the launch-purity pin (stats
# independent of operand values and launcher history, which the launch
# memo relies on) with bodies on 4 workers.
TCG_THREADS=4 cargo test --release -q -p tcg-kernels
TCG_THREADS=4 ./target/release/tcgnn verify --seed 2023
TCG_THREADS=4 TCG_FAULT_RATE=0.05 TCG_FAULT_SEED=2023 \
    ./target/release/tcgnn train Pubmed/0.05 --epochs 3 | grep -q 'faults: '
# The figure bins that time the tiled block-sparse baselines (Triton and
# tSparse in table5, condensed Blocked-ELL in fig6c, raw Blocked-ELL in
# table3; one body in crates/kernels/src/spmm/tiling.rs, whose programs fan
# out like every other kernel's) must reproduce results/ with 4 workers.
replay_dir=$(mktemp -d)
for b in table5 fig6c table3; do
    TCG_THREADS=4 TCG_RESULTS_DIR="$replay_dir" ./target/release/$b >/dev/null
    replay_equal "$b"
done
rm -rf "$replay_dir"

step "verify: 30s differential fuzz smoke (fixed seed)"
cargo run --release -q -p tcg-oracle --bin fuzz_kernels -- --seed 2023 --budget-ms 30000

step "observability: metrics export, hotspot profile, perf sentinel"
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
# Profiled serve smoke: Prometheus metrics file plus Perfetto trace with
# per-request span trees. The metrics file must schema-check (tested via
# the library parser below) and the trace must be valid JSON with the
# request track present.
TCG_PROFILE=1 TCG_RESULTS_DIR="$obs_dir" \
    ./target/release/tcgnn serve Cora --requests 32 --rate 2000 --epochs 2 \
    --metrics "$obs_dir/serve.prom" >/dev/null
grep -q '^tcg_serve_requests_total 32$' "$obs_dir/serve.prom" || {
    echo "observability: metrics file missing/miscounting requests" >&2
    exit 1
}
grep -q '^# TYPE tcg_serve_latency_ms summary$' "$obs_dir/serve.prom" || {
    echo "observability: latency summary family missing" >&2
    exit 1
}
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert any(e.get('ph')=='b' for e in d['traceEvents']), 'no request spans'" \
    "$obs_dir/serve-cli.trace.json" || {
    echo "observability: Perfetto trace malformed or missing request spans" >&2
    exit 1
}
# Metrics schema check through the shared parser (exercised by unit tests).
cargo test --release -q -p tcg-serve metrics
# tcgnn top renders the dashboard.
./target/release/tcgnn top Cora --requests 16 --rate 2000 --epochs 2 \
    | grep -q 'tcgnn top' || {
    echo "observability: top dashboard did not render" >&2
    exit 1
}
# Hotspot profile on a registry subset, with block bodies on two workers:
# ranked table + reconciliation, no phase starred as measurement-dominated
# (a row ending in ' *'), the per-window CSV's header, and a well-formed
# collapsed-stack artifact: non-empty, every line 'tcgnn;<worker>;<phase>
# ns', and the pool workers' frames present.
TCG_THREADS=2 TCG_RESULTS_DIR="$obs_dir" \
    ./target/release/tcgnn profile --hotspots --datasets Cora --epochs 1 >/dev/null
table="$obs_dir/profile-hotspots.hotspots.txt"
grep -q 'reconciliation: .* (OK)' "$table" || {
    echo "observability: hotspot reconciliation failed" >&2
    exit 1
}
! grep -q ' \*$' "$table" || {
    echo "observability: the hotspot table stars a phase as measurement-dominated" >&2
    exit 1
}
[ "$(head -n 1 "$obs_dir/profile-hotspots.windows.csv")" = 'window,host_ns,sim_ns' ] || {
    echo "observability: hotspot windows CSV has the wrong header" >&2
    exit 1
}
folded="$obs_dir/profile-hotspots.folded"
[ -s "$folded" ] && ! grep -Evq '^tcgnn;(main|worker-[0-9]+);[a-z0-9_]+ [0-9]+$' "$folded" \
    && grep -Eq '^tcgnn;worker-[0-9]+;' "$folded" || {
    echo "observability: malformed collapsed-stack artifact" >&2
    exit 1
}
# Perf sentinel, warn tier: fresh results vs committed baselines. A FAIL
# verdict exits nonzero and gates CI; warnings are reported but pass.
./target/release/tcgnn bench --check

step "serve replay: regenerated serve benches equal the committed files"
# The sentinel above compares committed files with baselines; this step
# re-runs the serving benches and requires every report byte to reproduce,
# so a serve-path change that moves any of them fails here.
replay_dir=$(mktemp -d)
for b in serve resilience churn; do
    TCG_THREADS=1 TCG_RESULTS_DIR="$replay_dir" ./target/release/bench_$b >/dev/null
    replay_equal "BENCH_$b"
done
rm -rf "$replay_dir"

step "figure replay: regenerated figures, tables and ablations equal the committed files"
# Every paper figure, table and ablation is simulated-clock output, so a
# change that moves no simulated number must reproduce each file exactly,
# with every launch's blocks in order (TCG_THREADS=1). table5, fig6c and
# table3 also replay with 4 workers in the parallel-execution step.
replay_dir=$(mktemp -d)
for b in fig6a fig6b fig6c fig7a fig7b fig7c table1 table2 table3 table5 \
    ablation_cyclesim ablation_device ablation_geometry ext_models; do
    TCG_THREADS=1 TCG_RESULTS_DIR="$replay_dir" ./target/release/$b >/dev/null
    replay_equal "$b"
done
rm -rf "$replay_dir"

step "resilience: chaos-serve with breakers at TCG_THREADS=4"
# Full containment stack under seeded overload + faults: the property/
# integration suite (breaker purity, backoff thread-invariance, typed
# cancellation, brownout ladder, quarantine bitwise-equality) ...
TCG_THREADS=4 cargo test --release -q --test resilience
# ...then the CLI path: burst arrivals with a deadline only the head of
# the queue can meet, 30% fault rate. Every response must be a correct
# answer or a typed shed/cancel (failed == 0 is the no-wrong-logit gate:
# wrong logits are impossible by construction — cancelled batches discard
# their outputs and quarantined translations are rebuilt — so the only
# failure mode left is a typed error), with nonzero cancellations and
# breaker openings proving both containment paths actually fired.
resil_out=$(TCG_THREADS=4 TCG_FAULT_RATE=0.3 TCG_FAULT_SEED=7 \
    ./target/release/tcgnn serve Cora --requests 128 --rate 100000 \
    --deadline 0.25 --low-every 3 --epochs 2 --resilience)
sed -n '/^{/,$p' <<<"$resil_out" | python3 -c "
import json, sys
d = json.load(sys.stdin)
r = d['resilience']
assert d['failed'] == 0, f'wrong-path responses under chaos: {d[\"failed\"]}'
assert d['on_time'] + d['late'] + d['shed'] + d['cancelled'] == d['total_requests'], \
    'untyped outcome leak'
assert d['cancelled'] > 0, 'deadline cancellation never fired'
assert r['breaker']['opened'] > 0, 'circuit breaker never opened'
assert r['breaker']['rerouted_batches'] > 0, 'open breaker never rerouted a batch'
print(f\"resilience gate: {d['cancelled']} cancelled, \"
      f\"{r['breaker']['opened']} breaker openings, \"
      f\"{r['breaker']['rerouted_batches']} rerouted batches, 0 failed\")
" || {
    echo "resilience: chaos-serve containment gate failed" >&2
    exit 1
}

step "serve overlap: dispatcher, stream workers and launcher fan-out at TCG_THREADS=4"
# The dispatcher binds batches while one worker per stream executes them,
# and each worker's launches fan block bodies over 4 more threads. The
# pinned serve artifacts, the serving and chaos suites, the session
# write-back and the repeated 4-stream runs must hold with all of them
# interleaving.
TCG_THREADS=4 cargo test --release -q --test serve_pipeline_pins --test serving \
    --test chaos --test serve_overlap

step "receptive-field serving: targeted rows equal the full forward at TCG_THREADS=4"
# A serve batch computes only the row windows its targets' receptive fields
# read, layer by layer. Every servable model on TC-GNN and hybrid over the
# ten adversarial families must give target rows bitwise equal to the full
# forward with block bodies on 4 workers, and two partial launches over
# different windows on one engine must each get their own stats.
TCG_THREADS=4 cargo test --release -q --test receptive_serving

step "hybrid: per-window dispatch conformance + tune-threshold bench gate"
# The conformance matrix above already runs the hybrid backend column
# (BackendKind::ALL); here the dispatch-specific suites: stitching/purity
# property tests, 8-vs-1-thread mixed launches with the ECC window-degrade
# chaos case, then the bench sentinel over the committed BENCH_hybrid
# baselines (whose _meta carries the fitted tune thresholds; the full
# sweep is `cargo run --release -p tcg-bench --bin bench_hybrid`).
cargo test --release -q --test hybrid_dispatch
cargo run --release -q -p tcg-bench --bin bench_hybrid -- --check

step "dynamic graphs: metamorphic edit-script suite + churn bench gate"
# Incremental ≡ from-scratch translation (bitwise) over random edit scripts
# on all 10 adversarial families, plus the serve-level mutation semantics —
# with block bodies fanned over 4 workers and every delta hard-validated.
TCG_VERIFY=1 TCG_THREADS=4 cargo test --release -q --test delta_translation
# CLI churn smoke: mutations must all apply and resolve through the
# delta-translation path (touched windows retranslate, the rest reuse).
# TCG_VERIFY=1 also checks each graph version's key, kept current from the
# touched windows, against one composed from the whole graph, and each
# cache hit's window fingerprints against the served graph's.
churn_out=$(TCG_VERIFY=1 ./target/release/tcgnn serve Cora --requests 32 --rate 2000 --epochs 2 --churn 3)
sed -n '/^{/,$p' <<<"$churn_out" | python3 -c "
import json, sys
d = json.load(sys.stdin)
m = d['mutations']
assert m['requested'] == 3 and m['applied'] == 3, f'churn events lost: {m}'
assert d['sgt_cache']['delta_translations'] >= 1, 'mutation never took the delta path'
assert m['windows_preserved'] > m['windows_touched'], \
    f'window reuse missing: {m[\"windows_touched\"]} touched vs {m[\"windows_preserved\"]} preserved'
print(f\"churn gate: {m['applied']} mutations, {m['windows_touched']} windows retranslated, \"
      f\"{m['windows_preserved']} preserved\")
" || {
    echo "dynamic graphs: CLI churn smoke failed" >&2
    exit 1
}
# Sharded churn smoke: a --devices run with mutations shards every batch
# (the engine backend composes with churn), applies the edit and pays halo
# traffic.
dist_out=$(./target/release/tcgnn serve Cora --requests 32 --rate 2000 --epochs 2 \
    --devices 2 --churn 1)
sed -n '/^{/,$p' <<<"$dist_out" | python3 -c "
import json, sys
d = json.load(sys.stdin)
assert d['devices'] == 2, f'sharded churn ran on {d[\"devices\"]} devices'
assert d['mutations']['applied'] == 1, f'churn event lost: {d[\"mutations\"]}'
assert d['halo_bytes'] > 0, 'sharded churn exchanged no halo'
print(f\"sharded churn: {d['devices']} devices, {d['halo_bytes']} halo bytes\")
" || {
    echo "dynamic graphs: --devices 2 --churn 1 smoke failed" >&2
    exit 1
}
# Churn-bench sentinel over the committed BENCH_churn baselines (the full
# run is \`cargo run --release -p tcg-bench --bin bench_churn\`).
cargo run --release -q -p tcg-bench --bin bench_churn -- --check

step "dist: sharded-execution bitwise equality + scaling baselines"
# Partition/shard properties, then the bitwise gate: every servable model on
# every backend across the 10 adversarial oracle families and the fig7b
# dataset suite at 2 and 4 devices under both partitioners, with block
# bodies fanned over 4 workers — sharding must be invisible to the math.
TCG_THREADS=4 cargo test --release -q -p tcg-dist
TCG_THREADS=4 cargo test --release -q --test sharded_equivalence
# Scaling-curve sentinel over the committed BENCH_dist baselines (the full
# 1M-node workload is `cargo run --release -p tcg-bench --bin bench_dist`).
cargo run --release -q -p tcg-bench --bin bench_dist -- --check

step "cargo doc: every doc link resolves, none points at a private item"
# Catches links a refactor leaves dangling. Covers the vendored shims too.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "CI PASSED"
