//! End-to-end coverage for the `wazabee-serve` multi-tenant decode plane:
//! concurrent loopback sessions over TCP and unix sockets, per-session
//! artifact trees, bounded-queue backpressure on a deliberately slowed
//! decode plane, graceful-shutdown draining and file tailing.
//!
//! Everything here runs against real sockets on loopback and real modulated
//! 802.15.4 IQ — the same waveforms the rest of the suite decodes — so a
//! recovered frame exercises the full path: wire protocol → planar
//! conversion → bounded queue → pooled `StreamingRx` → PCAP/JSONL/report
//! artifacts.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use wazabee_dot154::{fcs::append_fcs, Dot154Modem, Ppdu};
use wazabee_dsp::io::SampleFormat;
use wazabee_dsp::{Iq, IqBuf};
use wazabee_flightrec::pcap::read_pcap;
use wazabee_integration::{parse_json, Json};
use wazabee_serve::{proto, ServeConfig, Server};

const SPS: usize = 8;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wzb-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A clean capture holding `frames` deliveries whose payloads encode the
/// (session, frame) pair, so recovery is checkable per frame.
fn capture(session: u8, frames: usize) -> Vec<Iq> {
    let modem = Dot154Modem::new(SPS);
    let mut air = vec![Iq::ZERO; 400];
    for k in 0..frames {
        let ppdu = Ppdu::new(append_fcs(&[session, k as u8, 0xDE, 0xC0, 0xDE])).unwrap();
        air.extend(modem.transmit(&ppdu));
        air.extend(vec![Iq::ZERO; 500 + 97 * (k % 3)]);
    }
    air
}

/// Streams `air` over `conn` as wire-protocol records in `chunk`-sample
/// batches of the given sample format.
fn stream_capture(
    conn: &mut impl Write,
    air: &[Iq],
    format: SampleFormat,
    chunk: usize,
) -> std::io::Result<()> {
    let mut planar = IqBuf::with_capacity(chunk);
    for c in air.chunks(chunk) {
        planar.clear();
        planar.extend_interleaved(c);
        proto::write_samples(conn, format, &format.encode(planar.as_slice()))?;
    }
    proto::write_end(conn)?;
    conn.flush()
}

#[test]
fn concurrent_tcp_sessions_recover_all_frames_with_artifacts() {
    let out = tmp_dir("e2e");
    let sessions = 6usize;
    let frames = 3usize;
    let mut server = Server::start(ServeConfig {
        workers: 2,
        output_dir: Some(out.clone()),
        sps: SPS,
        ..ServeConfig::default()
    });
    let addr = server.bind_tcp("127.0.0.1:0").unwrap();

    // Every client picks its own wire format, so both codecs are covered.
    let clients: Vec<_> = (0..sessions)
        .map(|s| {
            std::thread::spawn(move || {
                let format = if s % 2 == 0 {
                    SampleFormat::Cf32
                } else {
                    SampleFormat::U8Offset128
                };
                let mut conn = TcpStream::connect(addr).unwrap();
                proto::write_hello(&mut conn, &format!("tenant-{s}")).unwrap();
                stream_capture(&mut conn, &capture(s as u8, frames), format, 4096).unwrap();
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let summary = server.shutdown();

    assert_eq!(summary.reports.len(), sessions);
    assert_eq!(summary.total_frames(), (sessions * frames) as u64);
    for report in &summary.reports {
        assert_eq!(report.frames, frames as u64, "session {}", report.name);
        assert_eq!(report.crc_fail, 0, "session {}", report.name);
        assert_eq!(report.chunks_dropped, 0, "socket ingest never drops");
        assert!(
            report.name.contains("tenant-"),
            "hello rename: {}",
            report.name
        );

        // Per-session artifact tree: PCAP with the session's frames (each
        // payload tagged with the session number), JSONL log, JSON report.
        let dir = out.join(&report.name);
        let pcap = read_pcap(&dir.join("frames.pcap")).unwrap();
        assert_eq!(pcap.packets.len(), frames);
        let tenant: u8 = report
            .name
            .split("tenant-")
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        for (k, pkt) in pcap.packets.iter().enumerate() {
            assert_eq!(pkt.bytes[0], tenant, "frame routed to the wrong session");
            assert_eq!(pkt.bytes[1], k as u8, "frames out of order");
        }
        let jsonl = std::fs::read_to_string(dir.join("frames.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), frames);
        assert!(jsonl.lines().all(|l| l.contains("\"fcs_ok\":true")));
        let rep = parse_json(&std::fs::read_to_string(dir.join("report.json")).unwrap())
            .expect("report.json parses");
        assert_eq!(
            rep.get("frames").and_then(Json::as_f64),
            Some(frames as f64)
        );
        assert_eq!(rep.get("name").and_then(Json::as_str), Some(&*report.name));
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn unix_socket_session_decodes_frames() {
    let out = tmp_dir("unix");
    let sock = out.join("serve.sock");
    let mut server = Server::start(ServeConfig {
        workers: 1,
        sps: SPS,
        ..ServeConfig::default()
    });
    server.bind_unix(&sock).unwrap();
    let mut conn = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    proto::write_hello(&mut conn, "uds").unwrap();
    stream_capture(&mut conn, &capture(9, 2), SampleFormat::Cf32, 2048).unwrap();
    drop(conn);
    let summary = server.shutdown();
    assert_eq!(summary.reports.len(), 1);
    assert_eq!(summary.reports[0].frames, 2);
    assert!(summary.reports[0].name.ends_with("-uds"));
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn full_queue_blocks_socket_ingest_without_unbounded_memory() {
    // A deliberately slow decode plane (2 ms per chunk) against a
    // firehosing client: the bounded queue must stall the producer rather
    // than buffer without limit, so the observed high-water mark can never
    // exceed the configured bound — and, because the socket path blocks
    // instead of dropping, every chunk must still be decoded. The client
    // runs over a unix socket, whose kernel buffering is small and fixed
    // (~208 KiB, no TCP-style window autotuning), so pushing ~3 MiB
    // guarantees the producer actually sits in backpressure stalls.
    let queue_chunks = 4usize;
    let total_chunks = 100usize;
    let chunk_samples = 4096usize; // 32 KiB cf32 per chunk
    let out = tmp_dir("backpressure");
    let sock = out.join("firehose.sock");
    let mut server = Server::start(ServeConfig {
        workers: 1,
        queue_chunks,
        sps: SPS,
        decode_delay: Duration::from_millis(2),
        ..ServeConfig::default()
    });
    server.bind_unix(&sock).unwrap();

    let started = Instant::now();
    let mut conn = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    proto::write_hello(&mut conn, "firehose").unwrap();
    let air = vec![Iq::ZERO; total_chunks * chunk_samples];
    stream_capture(&mut conn, &air, SampleFormat::Cf32, chunk_samples).unwrap();
    drop(conn);
    let produced_in = started.elapsed();

    let summary = server.shutdown();
    let report = &summary.reports[0];
    assert_eq!(report.chunks_in, total_chunks as u64, "no chunk lost");
    assert_eq!(report.chunks_dropped, 0, "socket ingest never drops");
    assert!(
        report.queue_high_water <= queue_chunks as u64 + 1,
        "queue grew past its bound: high water {} vs cap {queue_chunks}",
        report.queue_high_water
    );
    // The producer finishing proves it was *blocked*, not buffered: the
    // queue holds 4 chunks and the socket ~7 more, so ~89 of the 100 chunks
    // can only enter after a 2 ms decode frees a slot. 50 ms is a generous
    // floor on those ≈178 ms of stalls.
    let floor = Duration::from_millis(50);
    assert!(
        produced_in >= floor,
        "producer finished in {produced_in:?}; expected >= {floor:?} of backpressure"
    );
}

#[test]
fn shutdown_drains_queued_chunks_before_reporting() {
    // Enqueue a whole capture against a slowed decode plane, then shut down
    // immediately: the drain contract says nothing enqueued is lost, so the
    // report must still show every frame.
    let mut server = Server::start(ServeConfig {
        workers: 1,
        queue_chunks: 64,
        sps: SPS,
        decode_delay: Duration::from_millis(2),
        ..ServeConfig::default()
    });
    let addr = server.bind_tcp("127.0.0.1:0").unwrap();
    let frames = 4usize;
    let mut conn = TcpStream::connect(addr).unwrap();
    proto::write_hello(&mut conn, "drain").unwrap();
    stream_capture(&mut conn, &capture(3, frames), SampleFormat::Cf32, 1024).unwrap();
    drop(conn);
    // No settling sleep: shutdown itself must wait for the queued chunks.
    let summary = server.shutdown();
    assert_eq!(summary.reports.len(), 1);
    assert_eq!(summary.reports[0].frames, frames as u64);
    assert_eq!(summary.reports[0].crc_fail, 0);
}

#[test]
fn file_tail_follows_growth_and_reports_on_shutdown() {
    let out = tmp_dir("tail");
    let path = out.join("capture.cf32");
    let air = capture(7, 2);
    let split = air.len() / 2;

    // First half on disk before the tail starts; second half appended while
    // the tail is live (with a ragged flush boundary mid-sample to exercise
    // the remainder carry).
    let mut planar = IqBuf::with_capacity(air.len());
    planar.extend_interleaved(&air);
    let bytes = SampleFormat::Cf32.encode(planar.as_slice());
    let split_bytes = split * SampleFormat::Cf32.bytes_per_sample();
    std::fs::write(&path, &bytes[..split_bytes]).unwrap();

    let server = Server::start(ServeConfig {
        workers: 1,
        sps: SPS,
        tail_poll_ms: 5,
        ..ServeConfig::default()
    });
    server
        .tail_file(&path, SampleFormat::Cf32, "growing")
        .unwrap();
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        // A few unaligned appends: the tail must carry partial samples.
        f.write_all(&bytes[split_bytes..split_bytes + 3]).unwrap();
        f.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        f.write_all(&bytes[split_bytes + 3..]).unwrap();
        f.flush().unwrap();
    }
    // Let the tail catch up to the final length before shutdown's last poll.
    std::thread::sleep(Duration::from_millis(60));
    let summary = server.shutdown();
    assert_eq!(summary.reports.len(), 1);
    let report = &summary.reports[0];
    assert!(report.name.contains("tail-growing"), "{}", report.name);
    assert_eq!(report.frames, 2, "both frames across the growth boundary");
    assert_eq!(report.bytes_in, bytes.len() as u64, "every byte ingested");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn protocol_error_ends_only_the_offending_session() {
    let mut server = Server::start(ServeConfig {
        workers: 1,
        sps: SPS,
        ..ServeConfig::default()
    });
    let addr = server.bind_tcp("127.0.0.1:0").unwrap();

    // A garbage client: unknown tag right after hello.
    let mut bad = TcpStream::connect(addr).unwrap();
    proto::write_hello(&mut bad, "corrupt").unwrap();
    bad.write_all(&[0xEE, 4, 0, 0, 0, 1, 2, 3, 4]).unwrap();
    bad.flush().unwrap();
    drop(bad);

    // A well-behaved neighbour on the same worker keeps decoding.
    let mut good = TcpStream::connect(addr).unwrap();
    proto::write_hello(&mut good, "clean").unwrap();
    stream_capture(&mut good, &capture(1, 2), SampleFormat::U8Offset128, 2048).unwrap();
    drop(good);

    let summary = server.shutdown();
    assert_eq!(summary.reports.len(), 2);
    let by_name = |needle: &str| {
        summary
            .reports
            .iter()
            .find(|r| r.name.contains(needle))
            .unwrap()
    };
    assert_eq!(by_name("corrupt").frames, 0);
    assert_eq!(by_name("clean").frames, 2);
}

/// Reads records off `bytes` until a clean end or the first error, checking
/// every sample record the decoder hands out: bounded, whole samples, and
/// accepted by the sample codec.
fn drain_wire(bytes: &[u8]) {
    let mut r = std::io::Cursor::new(bytes);
    let mut planar = IqBuf::new();
    while let Ok(Some(record)) = proto::read_record(&mut r) {
        if let proto::Record::Samples(format, payload) = record {
            assert!(payload.len() <= proto::MAX_RECORD_LEN);
            assert_eq!(payload.len() % format.bytes_per_sample(), 0);
            planar.clear();
            let n = format.decode(&payload, &mut planar).unwrap();
            assert_eq!(n, payload.len() / format.bytes_per_sample());
        }
    }
}

/// Builds a record stream from `seeds`: each seed picks a tag (the four
/// known ones or an arbitrary byte), a body cut from `noise`, and a length
/// prefix that is honest or hostile (`u32::MAX`, the cap, one past the cap,
/// or arbitrary). Arbitrary noise follows as a trailer.
fn framed_wire(seeds: &[u64], noise: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut at = 0;
    for &seed in seeds {
        let tag = match seed % 8 {
            0 => proto::TAG_HELLO,
            1..=3 => proto::TAG_SAMPLES_CF32,
            4 | 5 => proto::TAG_SAMPLES_U8,
            6 => proto::TAG_END,
            _ => (seed >> 3) as u8,
        };
        let mut body_len = ((seed >> 11) as usize % 4096).min(noise.len() - at);
        if seed >> 63 == 1 {
            // Whole cf32 samples, so honest sample records get through.
            body_len -= body_len % 8;
        }
        let body = &noise[at..at + body_len];
        at += body_len;
        let cap = proto::MAX_RECORD_LEN as u32;
        let len = match (seed >> 24) % 10 {
            0..=5 => body.len() as u32,
            6 => u32::MAX,
            7 => cap,
            8 => cap + 1,
            _ => (seed >> 32) as u32,
        };
        out.push(tag);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(body);
    }
    out.extend_from_slice(&noise[at..]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The wire decoder never panics on hostile bytes — raw noise of up to
    /// 64 KiB, or record headers with hostile length prefixes — and every
    /// sample record it accepts is bounded, whole and decodable.
    #[test]
    fn prop_read_record_survives_hostile_bytes(
        noise in proptest::collection::vec(any::<u8>(), 0..=65_536),
        seeds in proptest::collection::vec(any::<u64>(), 0..16),
    ) {
        drain_wire(&noise);
        drain_wire(&framed_wire(&seeds, &noise));
    }
}
