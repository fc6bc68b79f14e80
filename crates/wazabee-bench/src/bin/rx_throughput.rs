//! RX-pipeline throughput benchmark: how fast does the packed-bitstream
//! receive path chew through captures, and how much faster is the packed
//! despreading kernel than the scalar reference?
//!
//! Measures:
//! * end-to-end reception-primitive throughput in frames per second over a
//!   batch of pre-generated IQ captures, swept in parallel via the
//!   deterministic sweep driver (`WAZABEE_THREADS` workers),
//! * despreading throughput in Msymbols per second for the packed `u32`
//!   kernel and the scalar byte-per-bit reference, plus their ratio,
//! * discriminator throughput in Msamples per second for the planar SIMD
//!   kernel, its `f32` scalar twin and the interleaved `f64` reference, plus
//!   the SIMD kernel's ratio to each,
//! * sync-search throughput in Mbit/s on frame-like lanes for the streaming
//!   correlator and the byte-per-bit oracle (restarted past each hit), plus
//!   their ratio and the hit rate per alignment.
//!
//! Writes `BENCH_rx_throughput.json` to the current directory or the path
//! given with `--out`.
//!
//! Run with:
//! `cargo run --release -p wazabee-bench --bin rx_throughput [--smoke] [--out PATH]`

use std::time::Instant;

use wazabee::msk::{correspondence_table, despread_msk_block_packed, despread_msk_block_scalar};
use wazabee::WazaBeeRx;
use wazabee_bench::lanes::{frame_like_lane, oracle_hits};
use wazabee_ble::{BleModem, BlePhy};
use wazabee_dot154::{fcs::append_fcs, Dot154Modem, Ppdu};
use wazabee_dsp::correlate::PatternMatch;
use wazabee_dsp::{PackedBits, StreamCorrelator};
use wazabee_radio::{Link, LinkConfig, RfFrame};
use wazabee_telemetry::json::{Fixed, Writer};

/// One pre-generated capture: the on-air IQ of a counter frame after the
/// office channel, paired with the PSDU it should decode to.
struct Capture {
    air: Vec<wazabee_dsp::Iq>,
    psdu: Vec<u8>,
}

fn generate_captures(count: usize, sps: usize) -> Vec<Capture> {
    let zigbee = Dot154Modem::new(sps);
    let cfg = LinkConfig {
        snr_db: Some(14.0),
        ..LinkConfig::office_3m()
    };
    (0..count)
        .map(|k| {
            let ppdu = Ppdu::new(append_fcs(&[k as u8, 0x5A, 0xA5, k as u8, 1, 2, 3, 4])).unwrap();
            let air = zigbee.transmit(&ppdu);
            let mut link = Link::new(cfg, 0xBEE5 + k as u64);
            let heard = link.deliver(&RfFrame::new(2420, air, zigbee.sample_rate()), 2420);
            Capture {
                air: heard,
                psdu: ppdu.psdu().to_vec(),
            }
        })
        .collect()
}

/// End-to-end RX throughput: decode every capture with the reception
/// primitive, in parallel, and report (decoded, frames_per_sec).
fn bench_rx(captures: &[Capture], sps: usize) -> (usize, f64, f64) {
    let rx = WazaBeeRx::new(BleModem::new(BlePhy::Le2M, sps)).expect("LE 2M");
    let start = Instant::now();
    let decoded = wazabee_bench::sweep::par_map(captures.iter().collect(), |c| {
        rx.receive(&c.air)
            .is_some_and(|r| r.fcs_ok() && r.psdu == c.psdu) as usize
    })
    .into_iter()
    .sum();
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (decoded, captures.len() as f64 / secs, secs)
}

/// Despreading micro-benchmark: a long stream of noisy 31-bit MSK blocks is
/// despread with the packed kernel and the scalar reference; both checksums
/// must agree. Returns (packed Msym/s, scalar Msym/s).
fn bench_despread(symbols: usize) -> (f64, f64) {
    // Deterministic pseudo-noisy blocks derived from the real table.
    let table = correspondence_table();
    let blocks: Vec<[u8; 31]> = (0..symbols)
        .map(|k| {
            let mut b = table[k % 16];
            b[(k * 7) % 31] ^= (k % 3 == 0) as u8;
            b[(k * 13) % 31] ^= (k % 5 == 0) as u8;
            b
        })
        .collect();
    // One contiguous packed stream, as the receive path sees it.
    let flat: Vec<u8> = blocks.iter().flatten().copied().collect();
    let stream = PackedBits::from_bits(&flat);

    let start = Instant::now();
    let mut packed_sum = 0usize;
    for k in 0..symbols {
        let block = stream.extract_u32(k * 31, 31);
        let (sym, d) = despread_msk_block_packed(block);
        packed_sum += usize::from(sym) + d;
    }
    let packed_secs = start.elapsed().as_secs_f64().max(1e-9);

    let start = Instant::now();
    let mut scalar_sum = 0usize;
    for b in &blocks {
        let (sym, d) = despread_msk_block_scalar(b);
        scalar_sum += usize::from(sym) + d;
    }
    let scalar_secs = start.elapsed().as_secs_f64().max(1e-9);

    assert_eq!(packed_sum, scalar_sum, "packed/scalar despread divergence");
    let msym = |secs: f64| symbols as f64 / secs / 1e6;
    (msym(packed_secs), msym(scalar_secs))
}

/// Discriminator micro-benchmark over real capture IQ: the planar `f32` SIMD
/// kernel versus its `f32` scalar twin (does the blocked kernel actually
/// vectorize?) and versus the interleaved `f64` reference the receive path
/// used before going planar. Returns (simd, scalar, f64) Msamples/s.
fn bench_discriminate(captures: &[Capture], passes: usize) -> (f64, f64, f64) {
    let all: Vec<wazabee_dsp::Iq> = captures.iter().flat_map(|c| c.air.clone()).collect();
    let planar = wazabee_dsp::IqBuf::from_interleaved(&all);
    let n = all.len();

    let start = Instant::now();
    let mut out_f32 = Vec::with_capacity(n);
    for _ in 0..passes {
        out_f32.clear();
        wazabee_dsp::simd::discriminate_planar_into(planar.i(), planar.q(), &mut out_f32);
    }
    let simd_secs = start.elapsed().as_secs_f64().max(1e-9);

    let start = Instant::now();
    let mut out_scalar = Vec::with_capacity(n);
    for _ in 0..passes {
        out_scalar.clear();
        wazabee_dsp::simd::discriminate_planar_scalar_into(planar.i(), planar.q(), &mut out_scalar);
    }
    let scalar_secs = start.elapsed().as_secs_f64().max(1e-9);

    let start = Instant::now();
    let mut out_f64 = Vec::with_capacity(n);
    for _ in 0..passes {
        out_f64.clear();
        wazabee_dsp::discriminator::discriminate_into(&all, &mut out_f64);
    }
    let f64_secs = start.elapsed().as_secs_f64().max(1e-9);

    assert_eq!(
        out_f32.len(),
        out_f64.len(),
        "discriminator length divergence"
    );
    assert!(
        out_f32
            .iter()
            .zip(&out_scalar)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "simd/scalar discriminator divergence"
    );
    let msps = |secs: f64| (n * passes) as f64 / secs / 1e6;
    (msps(simd_secs), msps(scalar_secs), msps(f64_secs))
}

/// Sync-search micro-benchmark: the diverted access address at the default
/// budget of 3 over frame-like lanes, fed to the streaming correlator in
/// 512-bit chunks (one 4096-sample push at 8 samples per bit) and searched
/// by the byte-per-bit oracle restarted one bit past each hit; both hit
/// lists must agree. Returns (packed Mbit/s, oracle Mbit/s, hits).
fn bench_correlate(lane_bits: usize, lanes: usize) -> (f64, f64, usize) {
    const CHUNK_BITS: usize = 512;
    let sync = wazabee::access_address_pattern();
    let pattern = PackedBits::from_bits(sync);
    let lanes: Vec<Vec<u8>> = (0..lanes)
        .map(|k| frame_like_lane(0x5EED + k as u64, lane_bits, 0.02))
        .collect();
    // Each chunk is its own packed stream, fed from bit 0: the correlator
    // carries its own look-back across chunks, so it never reads the bits
    // an engine lane has already trimmed.
    let chunks: Vec<Vec<PackedBits>> = lanes
        .iter()
        .map(|lane| lane.chunks(CHUNK_BITS).map(PackedBits::from_bits).collect())
        .collect();

    let start = Instant::now();
    let mut packed_hits: Vec<Vec<PatternMatch>> = Vec::new();
    for lane in &chunks {
        let mut corr = StreamCorrelator::new(&pattern, 3);
        let mut hits = Vec::new();
        for chunk in lane {
            corr.feed_packed(chunk, 0, &mut hits);
        }
        packed_hits.push(hits);
    }
    let packed_secs = start.elapsed().as_secs_f64().max(1e-9);

    let start = Instant::now();
    let oracle: Vec<Vec<PatternMatch>> = lanes
        .iter()
        .map(|lane| oracle_hits(lane, sync, 3))
        .collect();
    let oracle_secs = start.elapsed().as_secs_f64().max(1e-9);

    assert_eq!(packed_hits, oracle, "streaming/oracle sync divergence");
    let mbps = |secs: f64| (lane_bits * lanes.len()) as f64 / secs / 1e6;
    let hits = packed_hits.iter().map(Vec::len).sum();
    (mbps(packed_secs), mbps(oracle_secs), hits)
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_rx_throughput.json".to_string();
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
                eprintln!("usage: rx_throughput [--smoke] [--out PATH]   (got {other:?})");
                std::process::exit(2);
            }
        }
    }

    match wazabee_telemetry::serve_from_env() {
        Ok(Some(addr)) => eprintln!("telemetry snapshot server on {addr}"),
        Ok(None) => {}
        Err(e) => eprintln!("telemetry snapshot server failed to start: {e}"),
    }

    let sps = 8;
    let (frames, symbols) = if smoke { (8, 200_000) } else { (64, 2_000_000) };
    let threads = wazabee_bench::sweep::default_threads();

    eprintln!("generating {frames} captures ...");
    let captures = generate_captures(frames, sps);
    eprintln!("decoding on {threads} thread(s) ...");
    let (decoded, frames_per_sec, rx_secs) = bench_rx(&captures, sps);
    eprintln!("despreading {symbols} symbols, packed vs scalar ...");
    let (packed_msym, scalar_msym) = bench_despread(symbols);
    let speedup = packed_msym / scalar_msym;
    eprintln!("discriminating capture IQ, planar f32 vs f32 scalar vs interleaved f64 ...");
    let (simd_msps, scalar_msps, f64_msps) =
        bench_discriminate(&captures, if smoke { 16 } else { 64 });
    let simd_speedup = simd_msps / f64_msps;
    let simd_vs_scalar = simd_msps / scalar_msps;
    let (lane_bits, lanes) = if smoke { (1 << 18, 4) } else { (1 << 20, 8) };
    eprintln!("searching {lanes} frame-like lanes of {lane_bits} bits, packed vs oracle ...");
    let (corr_mbps, oracle_mbps, sync_hits) = bench_correlate(lane_bits, lanes);
    let corr_vs_oracle = corr_mbps / oracle_mbps;
    let hit_rate = sync_hits as f64 / (lane_bits * lanes) as f64;

    println!("rx: {decoded}/{frames} frames decoded in {rx_secs:.3} s = {frames_per_sec:.1} frames/sec ({threads} threads)");
    println!("despread: packed {packed_msym:.2} Msym/s, scalar {scalar_msym:.2} Msym/s");
    println!("despread speedup (packed/scalar): {speedup:.2}x");
    println!(
        "correlate: packed {corr_mbps:.2} Mbit/s, oracle {oracle_mbps:.2} Mbit/s -> {corr_vs_oracle:.2}x, {sync_hits} hits ({:.3}% of alignments)",
        hit_rate * 100.0
    );
    println!(
        "discriminate: planar {simd_msps:.2} Msamples/s, scalar {scalar_msps:.2} Msamples/s, f64 {f64_msps:.2} Msamples/s -> simd_speedup {simd_speedup:.2}x, simd_vs_scalar {simd_vs_scalar:.2}x"
    );

    let mut json = String::new();
    Writer::new(&mut json)
        .begin_object()
        .field("bench", "rx_throughput")
        .field("smoke", smoke)
        .field("threads", threads)
        .key("rx")
        .begin_object()
        .field("frames", frames)
        .field("decoded", decoded)
        .field("seconds", Fixed(rx_secs, 6))
        .field("frames_per_sec", Fixed(frames_per_sec, 3))
        .end_object()
        .key("despread")
        .begin_object()
        .field("symbols", symbols)
        .field("packed_msymbols_per_sec", Fixed(packed_msym, 3))
        .field("scalar_msymbols_per_sec", Fixed(scalar_msym, 3))
        .field("speedup", Fixed(speedup, 3))
        .end_object()
        .key("discriminate")
        .begin_object()
        .field("simd_msamples_per_sec", Fixed(simd_msps, 3))
        .field("scalar_msamples_per_sec", Fixed(scalar_msps, 3))
        .field("f64_msamples_per_sec", Fixed(f64_msps, 3))
        .field("simd_speedup", Fixed(simd_speedup, 3))
        .field("simd_vs_scalar", Fixed(simd_vs_scalar, 3))
        .end_object()
        .key("correlate")
        .begin_object()
        .field("lane_bits", lane_bits * lanes)
        .field("hits", sync_hits)
        .field("hit_rate", Fixed(hit_rate, 6))
        .field("packed_mbits_per_sec", Fixed(corr_mbps, 3))
        .field("oracle_mbits_per_sec", Fixed(oracle_mbps, 3))
        .field("packed_vs_oracle", Fixed(corr_vs_oracle, 3))
        .end_object()
        .end_object();
    json.push('\n');
    std::fs::write(&out_path, json).expect("write benchmark artifact");
    eprintln!("wrote {out_path}");
    print!("{}", wazabee_telemetry::profile_summary());
}
