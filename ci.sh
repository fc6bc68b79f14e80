#!/usr/bin/env bash
# Offline CI for the wazabee workspace. Run from the repo root.
#
# Steps:
#   1. release build (the one build: telemetry and the flight recorder are
#      always compiled in and export nothing unless configured)
#   2. full test suite
#   3. clippy, warnings as errors
#   4. rustfmt check
#   5. telemetry-overhead smoke: the Criterion bench compiles and runs in
#      test mode
#   6. flight-recorder smoke: WAZABEE_CAPTURE_DIR produces PCAP + JSONL
#      artifacts; run from an empty directory with the variable unset, the
#      same example leaves that directory empty
#   7. packed-kernel micro-bench smoke: packed-vs-scalar despread/correlate
#      bench compiles and runs in test mode
#   8. iq-kernel micro-bench smoke: the planar SIMD sample-domain kernels
#      run in test mode, and every kernel's scalar reference is still
#      exercised (bench cases plus the bitwise parity proptests in
#      tests/tests/iq_simd.rs)
#   9. rx-throughput smoke: the bin emits a well-formed
#      BENCH_rx_throughput.json, the packed despreading kernel is at
#      least 3x faster than the scalar reference, and the planar
#      discriminator is at least 2x faster than its f32 scalar twin (a
#      "SIMD" kernel that stopped vectorizing fails here), and the streaming
#      sync search is at least 4x faster than the byte-per-bit oracle on
#      frame-like lanes (a prefilter that stopped screening fails here);
#      the discriminator variant dispatch selected ("avx2" or "portable") is
#      printed, so a host without AVX2 shows in the log
#  10. stream-throughput smoke: the streaming receiver emits a well-formed
#      BENCH_stream_throughput.json and recovers >= 2 frames behind a decoy
#      sync hit
#  11. netsim smoke: the network-scale spectrum-sim sweep emits a well-formed
#      BENCH_netsim.json whose no-attacker ideal cells deliver 100% and whose
#      attacked cells show waveform-level collisions
#  12. live snapshot poll: the netsim run is polled over
#      WAZABEE_TELEMETRY_ADDR and must answer with a well-formed snapshot
#      (labeled metrics, the flat sim.injected counter, the
#      netsim.delivery_ratio gauge, per-stage profile with p50_ns <= p99_ns,
#      alerts);
#      a run with WAZABEE_TELEMETRY_ADDR and WAZABEE_TRACE_OUT unset must
#      never start the endpoint
#  13. health + causal trace: during the attacked netsim run /healthz must
#      answer 503 with the collisions rule latched (and the delivery-ratio
#      rule armed), /trace must serve live Chrome Trace JSON, and the
#      WAZABEE_TRACE_OUT dump must hold rx.decode spans with frame args and
#      resolvable parents, only M/X/i phases and otherData.evicted_records;
#      a --no-attacker run must answer /healthz 200;
#      the run with the variables unset must write no trace file
#  14. shard-equivalence gate: a 256-node / 8-channel attacked cell is run
#      under WAZABEE_THREADS=1 and =4; the committed
#      event log and timeline JSONL must be byte-identical — the parallel
#      channel-sharded simulator may not perturb any committed artifact —
#      and the event log's sha256 must equal the pinned
#      artifacts/netsim_shard_check.log.sha256
#  15. serve-plane smoke: 8 paced loopback client sessions (cf32 and u8
#      offset-128 wire formats alternating) stream through the multi-tenant
#      decode service; every frame must be recovered
#      with zero CRC failures and zero dropped chunks, and the emitted
#      BENCH_serve.json must be well-formed with a per-session fairness
#      ratio >= 0.5
#  16. artifact byte-identity gate: every deterministic paper artifact
#      (tables, figures, ablations, scenario statistics, the sim time
#      series) is regenerated and must `cmp` equal to its committed copy
#      in artifacts/
#  17. dead-code guard: no `allow(dead_code)` under crates/*/src, no
#      retired timing macro (`timed_scope!`, `stage!`, `span!`) or metric
#      macro (`value_histogram!`, `labeled_counter!`, `labeled_gauge!`,
#      `labeled_histogram!`) under crates/ tests/ examples/; one build only:
#      no `cfg(feature`/`cfg!(feature` under crates/ tests/ examples/, no
#      `[features]` table in the workspace's own manifests, and no cargo
#      run in this script that turns default features off; one target:
#      no .cargo/config.toml (or .cargo/config) and no setting that pins
#      the target CPU in the workspace's or perfbench's manifests or in
#      this script, since wide kernels are chosen at run time; the Rust line counts of crates/
#      tests/ examples/ and of wazabee-telemetry are printed so each
#      change's net line count shows in the log
#  18. perf regression gate: fresh smoke-run BENCH figures — including the
#      discriminator simd_speedup row, the correlator's packed_vs_oracle
#      ratio, the 1024-node
#      multi-channel sim/wall ratio, and the serve plane's per-session
#      paced decode rate — must stay within WAZABEE_PERF_TOLERANCE
#      (default 50%) of the committed artifacts/ baselines, failing loudly
#      on regressions; the committed serve baseline itself must show 100%
#      recovery at 64 sessions and fairness >= 0.5
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "=== $* ==="
    "$@"
}

run cargo build --release --workspace --offline
run cargo test -q --workspace --offline
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo fmt --all -- --check
run cargo bench -p wazabee-bench --bench telemetry_overhead --offline -- --test

capture_dir="$(mktemp -d)"
trap 'rm -rf "$capture_dir"' EXIT
run env WAZABEE_CAPTURE_DIR="$capture_dir" \
    cargo run --release -q -p wazabee-examples --bin zigbee_sniffer --offline > /dev/null
for f in frames.pcap frames.jsonl; do
    if ! [ -s "$capture_dir/$f" ]; then
        echo "ci.sh: expected non-empty $f in WAZABEE_CAPTURE_DIR" >&2
        exit 1
    fi
done
echo "flight-recorder artifacts present: $(ls "$capture_dir")"

# Off is the runtime default: with none of the four variables set, the
# same example run from an empty directory must leave it empty.
rm -rf "${capture_dir:?}"/*
unset_obs=(env -u WAZABEE_CAPTURE_DIR -u WAZABEE_TELEMETRY_OUT
    -u WAZABEE_TELEMETRY_ADDR -u WAZABEE_TRACE_OUT)
bin_dir="$PWD/target/release"
echo
echo "=== zigbee_sniffer with WAZABEE_CAPTURE_DIR unset, from an empty directory ==="
(cd "$capture_dir" && "${unset_obs[@]}" "$bin_dir/zigbee_sniffer" > /dev/null)
if [ -n "$(ls -A "$capture_dir")" ]; then
    echo "ci.sh: zigbee_sniffer wrote files without WAZABEE_CAPTURE_DIR:" \
        "$(ls -A "$capture_dir")" >&2
    exit 1
fi
echo "flight recorder off by default: no artifacts written"

run cargo bench -p wazabee-bench --bench packed_kernels --offline -- --test

# The planar SIMD kernels must run, and the scalar
# references they are parity-pinned to must still be exercised: the bench
# carries one *_scalar case per kernel, and the integration suite carries the
# bitwise scalar-parity proptests.
iq_bench_log="$capture_dir/iq_kernels_bench.log"
run cargo bench -p wazabee-bench --bench iq_kernels --offline -- --test 2>&1 | tee "$iq_bench_log"
for kernel in discriminate_scalar window_sums_scalar sliding_sums_scalar sign_words_scalar \
    lane_packing_scalar axpy_scalar superpose_accumulate_scalar fir_planar_scalar; do
    if ! grep -q "$kernel" "$iq_bench_log"; then
        echo "ci.sh: iq_kernels bench no longer exercises $kernel" >&2
        exit 1
    fi
done
scalar_props="$(cargo test -q -p wazabee-integration --offline --test iq_simd -- --list \
    | grep -c "match.*_scalar")"
if [ "$scalar_props" -lt 7 ]; then
    echo "ci.sh: expected >= 7 scalar-parity proptests in iq_simd, found $scalar_props" >&2
    exit 1
fi
echo "scalar references exercised: 8 bench cases + $scalar_props parity proptests"

bench_json="$capture_dir/BENCH_rx_throughput.json"
run cargo run --release -q -p wazabee-bench --bin rx_throughput --offline -- \
    --smoke --out "$bench_json"
if ! [ -s "$bench_json" ]; then
    echo "ci.sh: rx_throughput did not write $bench_json" >&2
    exit 1
fi
run python3 - "$bench_json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
rx, despread = doc["rx"], doc["despread"]
assert rx["frames_per_sec"] > 0, "frames/sec missing"
assert despread["packed_msymbols_per_sec"] > 0, "Msym/s missing"
speedup = despread["speedup"]
assert speedup >= 3.0, f"packed despread only {speedup:.2f}x faster than scalar (need >= 3x)"
disc = doc["discriminate"]
assert disc["scalar_msamples_per_sec"] > 0, "scalar discriminator Msamples/s missing"
assert disc["portable_msamples_per_sec"] > 0, "portable discriminator Msamples/s missing"
isa = disc["isa"]
assert isa in ("avx2", "portable"), f"unknown kernel variant {isa!r}"
assert (disc["avx2_msamples_per_sec"] is not None) == (isa == "avx2"), (
    f"AVX2 rate {disc['avx2_msamples_per_sec']} does not match the selected variant {isa}")
vs_scalar = disc["simd_vs_scalar"]
assert vs_scalar >= 2.0, (
    f"planar discriminator only {vs_scalar:.2f}x faster than its scalar twin "
    f"(need >= 2x): the kernel no longer vectorizes")
corr = doc["correlate"]
assert corr["hits"] > 0, "sync search found no hits on frame-like lanes"
vs_oracle = corr["packed_vs_oracle"]
assert vs_oracle >= 4.0, (
    f"streaming sync search only {vs_oracle:.2f}x faster than the byte-per-bit "
    f"oracle (need >= 4x): the prefilter no longer screens")
print(f"BENCH_rx_throughput.json well-formed: "
      f"{rx['frames_per_sec']:.0f} frames/s, "
      f"{despread['packed_msymbols_per_sec']:.1f} Msym/s packed, "
      f"{speedup:.1f}x over scalar, "
      f"discriminator {vs_scalar:.1f}x over its scalar twin "
      f"(kernel variant: {isa}), "
      f"sync search {vs_oracle:.1f}x over the oracle")
EOF

check_stream_json() {
    run python3 - "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
stream, fixture = doc["stream"], doc["fixture"]
assert stream["frames_per_sec"] > 0, "frames/sec missing"
assert stream["recovered"] == stream["frames"], (
    f"streaming lost frames: {stream['recovered']}/{stream['frames']}")
got = fixture["recovered_with_resync"]
assert got >= 2, f"only {got} frames recovered behind the decoy (need >= 2)"
print(f"BENCH_stream_throughput.json well-formed: "
      f"{stream['frames_per_sec']:.0f} frames/s streaming, "
      f"{got}/{fixture['frames']} recovered behind the decoy "
      f"(vs {fixture['recovered_without_resync']} without resync)")
EOF
}

stream_json="$capture_dir/BENCH_stream_throughput.json"
run cargo run --release -q -p wazabee-bench --bin stream_throughput --offline -- \
    --smoke --out "$stream_json"
check_stream_json "$stream_json"

check_netsim_json() {
    run python3 - "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cells = doc["cells"]
assert cells, "no sweep cells"
for c in cells:
    assert c["sim_wall_ratio"] > 0, "sim/wall ratio missing"
    if not c["attacker"]:
        assert c["delivery_ratio"] == 1.0, (
            f"no-attacker ideal cell n={c['nodes']} delivered "
            f"{c['delivery_ratio']:.3f} (expected 1.0)")
attacked = [c for c in cells if c["attacker"]]
assert any(c["collisions"] > 0 for c in attacked), "injector never collided"
print(f"BENCH_netsim.json well-formed: {len(cells)} cells, "
      f"no-attacker delivery 100%, "
      f"attacked-cell collisions up to {max(c['collisions'] for c in attacked)}")
EOF
}

# Waits until the backgrounded sweep announces "lingering" on stderr, then
# echoes the snapshot server address it bound (empty if the process died).
wait_for_linger() {
    local log="$1" pid="$2" addr=""
    for _ in $(seq 1 1200); do
        if grep -q "^lingering" "$log" 2>/dev/null; then
            addr="$(sed -n 's/^telemetry snapshot server on //p' "$log" | head -1)"
            break
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            break
        fi
        sleep 0.1
    done
    echo "$addr"
}

netsim_json="$capture_dir/BENCH_netsim.json"
netsim_log="$capture_dir/netsim_stderr.log"
netsim_trace="$capture_dir/netsim_trace.json"
echo
echo "=== netsim_scale --smoke with live snapshot server ==="
env WAZABEE_TELEMETRY_ADDR=127.0.0.1:0 WAZABEE_TRACE_OUT="$netsim_trace" \
    cargo run --release -q -p wazabee-bench --bin netsim_scale --offline -- \
    --smoke --out "$netsim_json" --linger-ms 120000 2>"$netsim_log" &
netsim_pid=$!
# The sweep announces its ephemeral port on stderr and lingers after the
# sweep so this poller can attach while the process is still running.
snapshot_addr="$(wait_for_linger "$netsim_log" "$netsim_pid")"
if [ -z "$snapshot_addr" ]; then
    cat "$netsim_log" >&2
    echo "ci.sh: netsim_scale never brought up the snapshot server" >&2
    exit 1
fi
run python3 - "$snapshot_addr" <<'EOF'
import json, sys, urllib.request
addr = sys.argv[1]
body = urllib.request.urlopen(f"http://{addr}/", timeout=10).read()
snap = json.loads(body)
assert snap["schema"] == "wazabee.telemetry.snapshot/1", snap.get("schema")
assert snap["enabled"] is True, "snapshot reports telemetry disabled"
families = {f["name"]: f for f in snap["labeled_counters"]}
assert "sim.tx" in families, f"sim.tx family missing: {sorted(families)}"
cells = families["sim.tx"]["cells"]
assert cells and all("node" in c["labels"] for c in cells), "sim.tx cells unlabeled"
# The flat sections keep the snapshot/1 shape perfbench parses: a flat
# counter the attacked run touches sits in `counters`, and the per-cell
# delivery gauge sits in `gauges` with its cells.
assert snap["counters"].get("sim.injected", 0) > 0, (
    f"flat counter sim.injected missing from counters: {sorted(snap['counters'])}")
gauges = {g["name"]: g for g in snap["gauges"]}
assert "netsim.delivery_ratio" in gauges, f"delivery gauge missing: {sorted(gauges)}"
assert gauges["netsim.delivery_ratio"]["cells"], "netsim.delivery_ratio has no cells"
stages = {s["name"]: s for s in snap["stages"]}
assert stages, "stage profile empty"
for s in stages.values():
    assert s["count"] > 0 and s["self_ns"] <= s["total_ns"], s
    assert s["p50_ns"] <= s["p99_ns"], s
assert isinstance(snap["alerts"], list), "snapshot has no alerts section"
print(f"live snapshot from {addr} well-formed: "
      f"{sum(len(f['cells']) for f in families.values())} labeled cells, "
      f"{len(stages)} profiled stages, {len(snap['alerts'])} alert rules")
EOF
run python3 - "$snapshot_addr" <<'EOF'
import json, sys, urllib.error, urllib.request
addr = sys.argv[1]
# The run keyed up carrier-sense-free injections, so the watchdog must
# have latched the injection rule: /healthz answers 503 with the alert
# body, and stays 503 for pollers arriving after the sweep finished.
try:
    urllib.request.urlopen(f"http://{addr}/healthz", timeout=10)
    raise SystemExit("ci.sh: /healthz answered 200 during an attacked run")
except urllib.error.HTTPError as e:
    assert e.code == 503, f"expected 503 from /healthz, got {e.code}"
    health = json.loads(e.read())
assert health["status"] == "alert", health
alerts = {a["name"]: a for a in health["alerts"]}
assert alerts["netsim.injection"]["latched"] is True, alerts
assert alerts["netsim.injection"]["value"] > 0, alerts
# The delivery-ratio floor is armed and watching the worst cell; smoke-size
# ideal cells deliver 100%, so it reports a value without firing.
degraded = alerts["netsim.delivery.degraded"]
assert degraded["value"] is not None, "delivery gauge never fed the rule"
# /trace serves the live causal ring as Chrome Trace JSON.
trace = json.loads(
    urllib.request.urlopen(f"http://{addr}/trace", timeout=10).read())
assert trace["traceEvents"], "live /trace document is empty"
print(f"/healthz 503 with netsim.injection latched "
      f"(value {alerts['netsim.injection']['value']:.0f}); "
      f"live /trace holds {len(trace['traceEvents'])} events")
EOF
kill "$netsim_pid" 2>/dev/null || true
wait "$netsim_pid" 2>/dev/null || true
check_netsim_json "$netsim_json"
run python3 - "$netsim_trace" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "WAZABEE_TRACE_OUT dump is empty"
# One record per closed span: only metadata, complete spans and instants.
phases = {e.get("ph") for e in events}
assert phases <= {"M", "X", "i"}, f"unexpected trace phases {sorted(map(str, phases))}"
assert "evicted_records" in doc.get("otherData", {}), "trace dump lacks otherData.evicted_records"
spans = {e["args"]["span_id"] for e in events
         if e.get("args", {}).get("span_id") is not None}
decodes = [e for e in events if e.get("name") == "rx.decode"]
assert decodes, "no rx.decode spans in the trace dump"
for d in decodes:
    args = d["args"]
    for key in ("frame", "bit", "lane", "sync_errors"):
        assert key in args, f"rx.decode span missing {key}: {args}"
    parent = args.get("parent")
    assert parent is None or parent in spans or args.get("parent_evicted"), (
        f"unresolvable parent {parent} without an eviction marker: {args}")
nested = sum(1 for d in decodes if d["args"].get("parent") in spans)
print(f"netsim trace dump well-formed: {len(events)} events, "
      f"{len(decodes)} rx.decode spans ({nested} with resolvable parents)")
EOF

# Without the injector no rule trips: /healthz must answer 200 "ok".
netsim_ok_log="$capture_dir/netsim_ok_stderr.log"
echo
echo "=== netsim_scale --smoke --no-attacker: /healthz stays 200 ==="
env WAZABEE_TELEMETRY_ADDR=127.0.0.1:0 \
    cargo run --release -q -p wazabee-bench --bin netsim_scale --offline -- \
    --smoke --no-attacker --out "$capture_dir/BENCH_netsim_ok.json" \
    --linger-ms 120000 2>"$netsim_ok_log" &
netsim_ok_pid=$!
ok_addr="$(wait_for_linger "$netsim_ok_log" "$netsim_ok_pid")"
if [ -z "$ok_addr" ]; then
    cat "$netsim_ok_log" >&2
    echo "ci.sh: no-attacker netsim_scale never brought up the snapshot server" >&2
    exit 1
fi
run python3 - "$ok_addr" <<'EOF'
import json, sys, urllib.request
addr = sys.argv[1]
resp = urllib.request.urlopen(f"http://{addr}/healthz", timeout=10)
assert resp.status == 200, f"expected 200 from /healthz, got {resp.status}"
health = json.loads(resp.read())
assert health["status"] == "ok", health
assert all(not a["latched"] for a in health["alerts"]), health
print(f"/healthz 200 OK without the injector ({len(health['alerts'])} rules calm)")
EOF
kill "$netsim_ok_pid" 2>/dev/null || true
wait "$netsim_ok_pid" 2>/dev/null || true

# Off is the runtime default: without WAZABEE_TELEMETRY_ADDR and
# WAZABEE_TRACE_OUT the sweep opens no endpoint and writes no trace. It runs
# from an empty directory, which must stay empty.
netsim_off_dir="$capture_dir/netsim_off"
netsim_off_json="$capture_dir/BENCH_netsim_off.json"
netsim_off_log="$capture_dir/netsim_off_stderr.log"
mkdir "$netsim_off_dir"
echo
echo "=== netsim_scale --smoke with WAZABEE_TELEMETRY_ADDR and WAZABEE_TRACE_OUT unset ==="
(cd "$netsim_off_dir" && "${unset_obs[@]}" "$bin_dir/netsim_scale" \
    --smoke --out "$netsim_off_json" 2>"$netsim_off_log")
cat "$netsim_off_log"
if grep -q "telemetry snapshot server on" "$netsim_off_log"; then
    echo "ci.sh: snapshot server started without WAZABEE_TELEMETRY_ADDR" >&2
    exit 1
fi
if [ -n "$(ls -A "$netsim_off_dir")" ]; then
    echo "ci.sh: netsim_scale wrote files without WAZABEE_TRACE_OUT:" \
        "$(ls -A "$netsim_off_dir")" >&2
    exit 1
fi
echo "snapshot server and trace dump off while their variables are unset"
check_netsim_json "$netsim_off_json"

# Shard-equivalence gate: the channel-sharded simulator must commit
# byte-identical artifacts at any worker count.
echo
echo "=== shard-equivalence gate: WAZABEE_THREADS=1 vs 4 ==="
p1="$capture_dir/shard_t1"
p4="$capture_dir/shard_t4"
run env WAZABEE_THREADS=1 \
    cargo run --release -q -p wazabee-bench --bin netsim_scale --offline \
    -- --shard-check "$p1"
run env WAZABEE_THREADS=4 \
    cargo run --release -q -p wazabee-bench --bin netsim_scale --offline \
    -- --shard-check "$p4"
for ext in log jsonl; do
    if ! cmp -s "$p1.$ext" "$p4.$ext"; then
        echo "ci.sh: .$ext artifact differs between 1 and 4 threads" >&2
        cmp "$p1.$ext" "$p4.$ext" >&2 || true
        exit 1
    fi
    if ! [ -s "$p1.$ext" ]; then
        echo "ci.sh: shard-check wrote an empty .$ext artifact" >&2
        exit 1
    fi
done
pinned=$(cat artifacts/netsim_shard_check.log.sha256)
for p in "$p1" "$p4"; do
    actual=$(sha256sum "$p.log" | cut -d' ' -f1)
    if [ "$actual" != "$pinned" ]; then
        echo "ci.sh: $p.log sha256 $actual differs from the pinned" \
            "artifacts/netsim_shard_check.log.sha256 ($pinned)" >&2
        exit 1
    fi
done
echo "event log + timeline byte-identical across thread counts," \
    "event log matches the pinned sha256"

# Serve-plane smoke: paced concurrent sessions against the multi-tenant
# decode service. 100% recovery is a hard floor —
# a lost frame on a clean loopback capture means the serve plane broke it.
check_serve_json() {
    run python3 - "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["recovered"] == doc["total_frames"], (
    f"serve plane lost frames: {doc['recovered']}/{doc['total_frames']}")
assert doc["crc_fail"] == 0, f"{doc['crc_fail']} CRC failures on a clean capture"
assert doc["chunks_dropped"] == 0, (
    f"{doc['chunks_dropped']} chunks dropped on blocking socket ingest")
assert doc["aggregate_frames_per_sec"] > 0, "aggregate frames/s missing"
detail = doc["sessions_detail"]
assert len(detail) == doc["sessions"], (
    f"{len(detail)} session reports for {doc['sessions']} sessions")
fairness = doc["fairness"]["min_max_ratio"]
assert fairness >= 0.5, (
    f"session fairness min/max {fairness:.3f} < 0.5 — a tenant starved")
print(f"BENCH_serve.json well-formed: {doc['recovered']}/{doc['total_frames']} "
      f"frames over {doc['sessions']} sessions, "
      f"{doc['aggregate_frames_per_sec']:.0f} frames/s aggregate, "
      f"fairness {fairness:.3f}")
EOF
}

serve_json="$capture_dir/BENCH_serve.json"
run cargo run --release -q -p wazabee-bench --bin serve_throughput --offline -- \
    --smoke --frames 8 --out "$serve_json"
check_serve_json "$serve_json"

# Artifact byte-identity gate: every committed artifact whose regenerator is
# deterministic must come back byte-for-byte, so an output change that is
# not recommitted fails here instead of going stale.
echo
echo "=== artifact byte-identity gate ==="
regen_dir="$capture_dir/regen"
mkdir -p "$regen_dir"
# Every regenerator, built fresh.
cargo build --release -q -p wazabee-bench --bins --offline
bin=target/release
"$bin/table1" >"$regen_dir/table1.txt"
"$bin/table2" >"$regen_dir/table2.txt"
"$bin/fig1" >"$regen_dir/fig1.csv" 2>"$regen_dir/fig1_check.txt"
"$bin/fig2" >"$regen_dir/fig2.csv" 2>"$regen_dir/fig2_check.txt"
"$bin/fig3" >"$regen_dir/fig3.txt"
"$bin/similarity_matrix" >"$regen_dir/similarity_matrix.txt"
"$bin/table3" >"$regen_dir/table3.txt" 2>/dev/null
"$bin/ablation_cfo" 20 >"$regen_dir/ablation_cfo.txt"
"$bin/ablation_despread" 40 >"$regen_dir/ablation_despread.txt"
"$bin/ablation_gaussian" 40 >"$regen_dir/ablation_gaussian.txt"
"$bin/ablation_modindex" 50 >"$regen_dir/ablation_modindex.txt"
"$bin/ablation_sps" 30 >"$regen_dir/ablation_sps.txt"
"$bin/ablation_sync" 40 >"$regen_dir/ablation_sync.txt"
"$bin/scenario_a_stats" 20 300 >"$regen_dir/scenario_a_stats.txt" 2>/dev/null
"$bin/scenario_b_stats" 10 >"$regen_dir/scenario_b_stats.txt" 2>/dev/null
"$bin/netsim_scale" --smoke --timeseries "$regen_dir/timeseries.jsonl" \
    --out "$regen_dir/BENCH_netsim_regen.json" >/dev/null 2>&1
stale=0
for f in table1.txt table2.txt fig1.csv fig1_check.txt fig2.csv fig2_check.txt \
    fig3.txt similarity_matrix.txt table3.txt ablation_cfo.txt ablation_despread.txt \
    ablation_gaussian.txt ablation_modindex.txt ablation_sps.txt ablation_sync.txt \
    scenario_a_stats.txt scenario_b_stats.txt timeseries.jsonl; do
    if ! cmp -s "$regen_dir/$f" "artifacts/$f"; then
        echo "ci.sh: regenerated $f differs from artifacts/$f" >&2
        diff "$regen_dir/$f" "artifacts/$f" | head -20 >&2 || true
        stale=1
    fi
done
if [ "$stale" -ne 0 ]; then
    echo "ci.sh: committed artifacts are stale — regenerate and recommit them" >&2
    exit 1
fi
echo "18 committed artifacts regenerate byte-identically"

echo
echo "=== dead-code guard, retired-macro guard and Rust line count ==="
if grep -rn --include='*.rs' 'allow(dead_code)' crates/*/src; then
    echo "ci.sh: allow(dead_code) under crates/*/src — delete the dead code instead" >&2
    exit 1
fi
echo "no allow(dead_code) under crates/*/src"
if grep -rnE --include='*.rs' '(timed_scope|stage|span)!' crates tests examples; then
    echo "ci.sh: retired timing macro above — use scope! instead" >&2
    exit 1
fi
echo "no timed_scope!/stage!/span! under crates/ tests/ examples/"
if grep -rnE --include='*.rs' '(value_histogram|labeled_counter|labeled_gauge|labeled_histogram)!' \
    crates tests examples; then
    echo "ci.sh: retired metric macro above — use counter!/gauge!/histogram! and .with(labels)" >&2
    exit 1
fi
echo "no value_histogram!/labeled_counter!/labeled_gauge!/labeled_histogram! under crates/ tests/ examples/"
# One build: telemetry and the flight recorder are always compiled in.
if grep -rnE --include='*.rs' 'cfg!?\(feature' crates tests examples; then
    echo "ci.sh: cargo-feature cfg above — there is one build; delete the gated branch" >&2
    exit 1
fi
# Vendored stand-ins under vendor/ keep their upstream feature names (serde's
# `derive`); the guard covers the workspace's own manifests.
if grep -nE '^\[features\]' Cargo.toml crates/*/Cargo.toml tests/Cargo.toml examples/Cargo.toml; then
    echo "ci.sh: [features] table above — there is one build; no cargo features" >&2
    exit 1
fi
# Spelled in two pieces so this guard does not match itself.
no_default="--no-default""-features"
if grep -nF -- "$no_default" ci.sh; then
    echo "ci.sh: $no_default run above — there is one build" >&2
    exit 1
fi
echo "one build: no cargo-feature cfg, [features] table or $no_default run"
# One target: wide kernels are chosen at run time, so no build setting may
# pin a CPU (a binary built for one faults on older hosts). Spelled in two
# pieces so this guard does not match itself.
target_cpu="target""-cpu"
for cfg in .cargo/config.toml .cargo/config perfbench/.cargo/config.toml perfbench/.cargo/config; do
    if [ -e "$cfg" ]; then
        echo "ci.sh: $cfg exists — kernels are chosen at run time, not by build settings" >&2
        exit 1
    fi
done
if grep -nF -- "$target_cpu" Cargo.toml crates/*/Cargo.toml tests/Cargo.toml \
    examples/Cargo.toml perfbench/Cargo.toml ci.sh; then
    echo "ci.sh: $target_cpu above — kernels are chosen at run time, not by build settings" >&2
    exit 1
fi
echo "one target: no .cargo/config.toml and no $target_cpu setting"
echo "Rust lines in crates/ tests/ examples/: $(find crates tests examples -name '*.rs' -exec cat {} + | wc -l)"
echo "Rust lines in crates/wazabee-telemetry: $(find crates/wazabee-telemetry -name '*.rs' -exec cat {} + | wc -l)"


run env WAZABEE_PERF_TOLERANCE="${WAZABEE_PERF_TOLERANCE:-0.5}" \
    python3 - "$bench_json" "$stream_json" "$netsim_json" "$serve_json" <<'EOF'
import json, os, sys

tol = float(os.environ["WAZABEE_PERF_TOLERANCE"])
fresh_rx_path, fresh_stream_path, fresh_netsim_path, fresh_serve_path = sys.argv[1:5]

def load(path):
    with open(path) as f:
        return json.load(f)

failures = []

def gate(label, fresh, base):
    floor = base * (1.0 - tol)
    if fresh < floor:
        failures.append(
            f"{label}: fresh {fresh:.3f} < floor {floor:.3f} "
            f"(baseline {base:.3f}, tolerance {tol:.0%})")
    else:
        print(f"perf gate ok: {label} fresh {fresh:.3f} "
              f"vs baseline {base:.3f} (floor {floor:.3f})")

rx_f, rx_b = load(fresh_rx_path), load("artifacts/BENCH_rx_throughput.json")
gate("rx.frames_per_sec",
     rx_f["rx"]["frames_per_sec"], rx_b["rx"]["frames_per_sec"])
gate("despread.speedup",
     rx_f["despread"]["speedup"], rx_b["despread"]["speedup"])
gate("despread.packed_msymbols_per_sec",
     rx_f["despread"]["packed_msymbols_per_sec"],
     rx_b["despread"]["packed_msymbols_per_sec"])
gate("discriminate.simd_speedup",
     rx_f["discriminate"]["simd_speedup"], rx_b["discriminate"]["simd_speedup"])
gate("correlate.packed_vs_oracle",
     rx_f["correlate"]["packed_vs_oracle"], rx_b["correlate"]["packed_vs_oracle"])

st_f, st_b = load(fresh_stream_path), load("artifacts/BENCH_stream_throughput.json")
gate("stream.frames_per_sec",
     st_f["stream"]["frames_per_sec"], st_b["stream"]["frames_per_sec"])

ns_f, ns_b = load(fresh_netsim_path), load("artifacts/BENCH_netsim.json")
base_cells = {(c["nodes"], c.get("channels", 1), c["attacker"]): c
              for c in ns_b["cells"]}
matched = 0
big_matched = 0
for c in ns_f["cells"]:
    key = (c["nodes"], c.get("channels", 1), c["attacker"])
    if key in base_cells:
        matched += 1
        big_matched += key[0] >= 1024
        gate(f"netsim.sim_wall_ratio[n={key[0]},ch={key[1]},"
             f"attacker={str(key[2]).lower()}]",
             c["sim_wall_ratio"], base_cells[key]["sim_wall_ratio"])
assert matched > 0, "no netsim cells matched the committed baseline"
assert big_matched > 0, "the 1024-node multi-channel cells are not gated"

# The serve smoke runs 8 sessions where the committed baseline runs 64, so
# the comparable figure is the *per-session* paced decode rate — with equal
# frames per session and pacing, a regressed decode plane shows up as a
# longer drain and a lower per-session rate at either scale. The committed
# 64-session baseline must also hold the multi-tenant acceptance bar on its
# own: every frame recovered and no session starved.
sv_f, sv_b = load(fresh_serve_path), load("artifacts/BENCH_serve.json")
assert sv_b["sessions"] >= 64, (
    f"committed serve baseline ran only {sv_b['sessions']} sessions (need >= 64)")
assert sv_b["recovered"] == sv_b["total_frames"], (
    f"committed serve baseline lost frames: "
    f"{sv_b['recovered']}/{sv_b['total_frames']}")
assert sv_b["fairness"]["min_max_ratio"] >= 0.5, (
    f"committed serve baseline fairness "
    f"{sv_b['fairness']['min_max_ratio']:.3f} < 0.5")
gate("serve.per_session_frames_per_sec",
     sv_f["aggregate_frames_per_sec"] / sv_f["sessions"],
     sv_b["aggregate_frames_per_sec"] / sv_b["sessions"])

if failures:
    print("ci.sh: perf regression gate FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print(f"perf regression gate passed (tolerance {tol:.0%})")
EOF

echo
echo "ci.sh: all checks passed"
