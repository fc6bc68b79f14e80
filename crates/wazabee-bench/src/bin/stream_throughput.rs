//! Streaming-receiver benchmark: how fast does `StreamingRx` chew through a
//! long chunk-fed capture holding many frames and decoy bursts, and how many
//! frames does resync-after-failure recover that the old first-attempt-only
//! receiver lost?
//!
//! Measures:
//! * sustained streaming throughput in frames per second over one long
//!   multi-frame buffer (decoy false-sync bursts interleaved every ~8th
//!   frame), fed in fixed 4096-sample chunks as an SDR front-end would,
//! * the resync ablation on a decoy-then-frames fixture: frames recovered
//!   with re-arming versus the old stop-at-first-attempt behaviour.
//!
//! Writes `BENCH_stream_throughput.json` to the current directory or the
//! path given with `--out`.
//!
//! Run with:
//! `cargo run --release -p wazabee-bench --bin stream_throughput [--smoke] [--out PATH]`

use std::time::Instant;

use wazabee::WazaBeeRx;
use wazabee_ble::{BleModem, BlePhy};
use wazabee_dot154::msk::frame_chips_to_msk;
use wazabee_dot154::pn::pn_sequence;
use wazabee_dot154::{fcs::append_fcs, Dot154Modem, Ppdu};
use wazabee_dsp::Iq;
use wazabee_radio::{Link, LinkConfig, RfFrame};
use wazabee_telemetry::json::{Fixed, Writer};

/// Chunk size of the simulated SDR front-end, in samples.
const CHUNK_SAMPLES: usize = 4096;

/// A decoy burst: the access-address sync pattern followed by a non-SFD
/// symbol — the correlator fires, the SFD check kills the attempt, and a
/// first-attempt-only receiver would abandon everything behind it.
fn decoy_burst(ble: &BleModem) -> Vec<Iq> {
    let mut bits: Vec<u8> = (0..wazabee::tx::TX_WARMUP_BITS)
        .map(|k| (k % 2) as u8)
        .collect();
    let mut chips = pn_sequence(0).to_vec();
    chips.extend(pn_sequence(5));
    bits.extend(frame_chips_to_msk(&chips, 0));
    ble.transmit_raw(&bits)
}

/// One long capture: `frames` office-channel deliveries back to back, with a
/// decoy burst spliced in before every ~8th frame.
fn build_stream(frames: usize, sps: usize) -> Vec<Iq> {
    let zigbee = Dot154Modem::new(sps);
    let ble = BleModem::new(BlePhy::Le2M, sps);
    let cfg = LinkConfig {
        snr_db: Some(16.0),
        ..LinkConfig::office_3m()
    };
    let mut buf = Vec::new();
    for k in 0..frames {
        if k % 8 == 3 {
            buf.extend(decoy_burst(&ble));
        }
        let ppdu = Ppdu::new(append_fcs(&[k as u8, 0xA5, 1, 2, 3, 4, 5, 6])).unwrap();
        let air = zigbee.transmit(&ppdu);
        let mut link = Link::new(cfg, 0x57EA + k as u64);
        buf.extend(link.deliver(&RfFrame::new(2420, air, zigbee.sample_rate()), 2420));
    }
    buf
}

/// Feeds `buf` through a fresh streaming receiver in fixed-size chunks,
/// returning every committed result.
fn stream_all(
    rx: &WazaBeeRx<BleModem>,
    buf: &[Iq],
) -> Vec<Result<wazabee_dot154::ReceivedPpdu, wazabee::WazaBeeError>> {
    let mut stream = rx.stream();
    let mut results = Vec::new();
    for chunk in buf.chunks(CHUNK_SAMPLES) {
        results.extend(stream.push(chunk));
        // Wall-clock time series: committed-frame count after each chunk, so
        // a live snapshot poller can watch decode progress mid-run.
        wazabee_telemetry::timeseries!("stream.results_total", results.len() as f64);
    }
    results.extend(stream.finish());
    results
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_stream_throughput.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("usage: stream_throughput [--smoke] [--out PATH]   (got {other:?})");
                std::process::exit(2);
            }
        }
    }

    // Health rules over the streaming decode path: more than half the
    // committed frames failing their FCS, or the despread p95 Hamming
    // distance drifting toward the reject threshold, means the radio
    // diversion itself has gone wrong — not just one noisy frame.
    wazabee_telemetry::health_rule!(
        "stream.fcs.failing",
        wazabee_telemetry::Signal::ratio("wazabee.rx.fcs.fail", "wazabee.stream.frames"),
        > 0.5
    );
    wazabee_telemetry::health_rule!(
        "stream.despread.drifting",
        wazabee_telemetry::Signal::quantile("wazabee.rx.despread_hamming", 0.95),
        > 12.0
    );
    wazabee_telemetry::start_watchdog(std::time::Duration::from_millis(100));

    match wazabee_telemetry::serve_from_env() {
        Ok(Some(addr)) => eprintln!("telemetry snapshot server on {addr}"),
        Ok(None) => {}
        Err(e) => eprintln!("telemetry snapshot server failed to start: {e}"),
    }

    let sps = 8;
    let frames = if smoke { 8 } else { 64 };
    let rx = WazaBeeRx::new(BleModem::new(BlePhy::Le2M, sps)).expect("LE 2M");

    eprintln!("building a {frames}-frame stream with decoy bursts ...");
    let buf = build_stream(frames, sps);
    eprintln!(
        "streaming {} samples in {CHUNK_SAMPLES}-sample chunks ...",
        buf.len()
    );
    let start = Instant::now();
    let results = stream_all(&rx, &buf);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let recovered = results
        .iter()
        .filter(|r| r.as_ref().is_ok_and(|f| f.fcs_ok()))
        .count();
    let frames_per_sec = frames as f64 / secs;

    // Resync ablation fixture: a decoy burst in front of three clean frames.
    // `with_resync` streams the whole fixture; `without_resync` models the
    // old receiver, which committed to the first attempt and stopped.
    eprintln!("resync ablation fixture: decoy + 3 frames ...");
    let zigbee = Dot154Modem::new(sps);
    let ble = BleModem::new(BlePhy::Le2M, sps);
    let mut fixture = decoy_burst(&ble);
    for k in 0..3u8 {
        fixture.extend(vec![Iq::ZERO; 700 + 200 * usize::from(k)]);
        let ppdu = Ppdu::new(append_fcs(&[0xF0 | k, 0x0D, 1, 2])).unwrap();
        fixture.extend(zigbee.transmit(&ppdu));
    }
    let fixture_results = stream_all(&rx, &fixture);
    let with_resync = fixture_results
        .iter()
        .filter(|r| r.as_ref().is_ok_and(|f| f.fcs_ok()))
        .count();
    let without_resync = usize::from(matches!(fixture_results.first(), Some(Ok(_))));

    println!(
        "stream: {recovered}/{frames} frames recovered in {secs:.3} s = {frames_per_sec:.1} frames/sec ({} attempts)",
        results.len()
    );
    println!("fixture: {with_resync}/3 frames with resync, {without_resync}/3 without");

    let mut json = String::new();
    Writer::new(&mut json)
        .begin_object()
        .field("bench", "stream_throughput")
        .field("smoke", smoke)
        .key("stream")
        .begin_object()
        .field("frames", frames)
        .field("recovered", recovered)
        .field("chunk_samples", CHUNK_SAMPLES)
        .field("seconds", Fixed(secs, 6))
        .field("frames_per_sec", Fixed(frames_per_sec, 3))
        .end_object()
        .key("fixture")
        .begin_object()
        .field("frames", 3u8)
        .field("recovered_with_resync", with_resync)
        .field("recovered_without_resync", without_resync)
        .end_object()
        .end_object();
    json.push('\n');
    std::fs::write(&out_path, json).expect("write benchmark artifact");
    eprintln!("wrote {out_path}");
    print!("{}", wazabee_telemetry::profile_summary());

    for a in wazabee_telemetry::evaluate_health() {
        if a.latched {
            eprintln!("health alert: {} (value {:?})", a.name, a.value);
        }
    }
    match wazabee_telemetry::dump_trace_from_env() {
        Ok(true) => {
            if let Ok(p) = std::env::var(wazabee_telemetry::ENV_TRACE_OUT) {
                eprintln!("wrote Chrome trace to {p}");
            }
        }
        Ok(false) => {}
        Err(e) => eprintln!("trace dump failed: {e}"),
    }
}
