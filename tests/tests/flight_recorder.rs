//! End-to-end tests of the flight-recorder subsystem: typed RX failures,
//! JSONL decode provenance, `.cf32` IQ dumps (replayable through the
//! receiver) and PCAP frame export.
//!
//! The recorder is process-global, so every test takes the file-local lock
//! and installs its own configuration into a fresh temp directory.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use wazabee::{WazaBeeError, WazaBeeRx};
use wazabee_ble::{BleModem, BlePhy};
use wazabee_dot154::fcs::append_fcs;
use wazabee_dot154::{Dot154Modem, Ppdu};
use wazabee_flightrec as fr;
use wazabee_flightrec::pcap::{
    read_pcap, LINKTYPE_IEEE802_15_4_NOFCS, LINKTYPE_IEEE802_15_4_WITHFCS,
};
use wazabee_flightrec::{IqCaptureMode, RxFailure};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A fresh, empty temp directory unique to this test and process.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wzb-fr-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cleanup(dir: &PathBuf) {
    fr::reset();
    let _ = std::fs::remove_dir_all(dir);
}

fn ble_rx() -> WazaBeeRx<BleModem> {
    WazaBeeRx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap()
}

fn ppdu(payload: &[u8]) -> Ppdu {
    Ppdu::new(append_fcs(payload)).unwrap()
}

/// The ISSUE's acceptance scenario: one good frame and one forced decode
/// failure must yield (a) the typed failure from the API, (b) ok and fail
/// provenance lines in the JSONL log, (c) a `.cf32` IQ window whose sidecar
/// references the failing trace id, and (d) a PCAP holding the good frame.
#[test]
fn forced_failure_produces_trace_iq_and_pcap() {
    let _l = lock();
    let dir = temp_dir("accept");
    fr::FlightRecorder::builder()
        .capture_dir(&dir)
        .iq_mode(IqCaptureMode::OnFailure)
        .install()
        .unwrap();

    let modem = Dot154Modem::new(8);
    let rx = ble_rx();

    // A clean frame decodes and lands in the PCAP.
    let good = ppdu(&[0x01, 0x08, 0x42, 0x13, 0x37]);
    let heard = rx.try_receive(&modem.transmit(&good)).unwrap();
    assert_eq!(heard.psdu, good.psdu());

    // A capture cut mid-PSDU is the forced failure.
    let long = ppdu(&[7; 60]);
    let air = modem.transmit(&long);
    let err = rx.try_receive(&air[..air.len() / 2]).unwrap_err();
    assert_eq!(err, WazaBeeError::Truncated);

    fr::flush().unwrap();

    // (a) The trace ring holds the typed failure. The streaming receiver
    // re-arms one bit past every failed sync hit, so the cut capture yields
    // one trace per re-armed attempt — all failed, attempt-indexed in order.
    let traces = fr::recent_traces();
    assert!(
        traces.len() >= 2,
        "one ok trace plus the failing attempts, got {}",
        traces.len()
    );
    assert!(traces[0].ok());
    assert_eq!(traces[0].attempt, Some(0), "fresh stream per try_receive");
    for (k, t) in traces[1..].iter().enumerate() {
        assert!(!t.ok());
        assert_eq!(t.attempt, Some(k as u64), "attempts indexed in order");
    }
    let failed = traces.last().unwrap();
    assert_eq!(failed.failure, Some(RxFailure::TruncatedFrame));
    assert!(failed.sync.is_some(), "failure happened after sync lock");
    // The last re-armed hits land right at the cut (the all-7s payload
    // contains `0000` symbols, which re-fire the correlator), so only
    // earlier attempts get far enough to despread anything.
    assert!(traces[1..].iter().any(|t| !t.despread_distances.is_empty()));

    // (b) The JSONL frame log links every attempt.
    let log = std::fs::read_to_string(dir.join(fr::FRAME_LOG_FILE)).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), traces.len(), "log:\n{log}");
    assert!(lines[0].contains("\"outcome\":\"ok\""), "{}", lines[0]);
    let last = lines.last().unwrap();
    assert!(last.contains("\"outcome\":\"fail\""), "{last}");
    assert!(last.contains("\"reason\":\"truncated\""), "{last}");

    // (c) The failing attempt dumped its IQ window, and the sidecar points
    // back at the trace.
    let iq_file = failed.iq_file.as_ref().expect("failure dumps IQ");
    let samples = fr::read_cf32(&dir.join(iq_file)).unwrap();
    assert_eq!(samples.len(), air.len() / 2);
    let stem = iq_file.strip_suffix(".cf32").unwrap();
    let sidecar = std::fs::read_to_string(dir.join(format!("{stem}.json"))).unwrap();
    assert!(
        sidecar.contains(&format!("\"trace_id\":{}", failed.id)),
        "{sidecar}"
    );
    assert!(sidecar.contains("\"trigger\":\"truncated\""), "{sidecar}");
    assert!(
        last.contains(&format!("\"iq_file\":\"{iq_file}\"")),
        "{last}"
    );

    // (d) The PCAP holds exactly the good frame, FCS included.
    let pcap = read_pcap(&dir.join(fr::PCAP_FILE)).unwrap();
    assert_eq!(pcap.linktype, LINKTYPE_IEEE802_15_4_WITHFCS);
    assert_eq!(pcap.packets.len(), 1);
    assert_eq!(pcap.packets[0].bytes, good.psdu());
    assert_eq!(traces[0].pcap_index, Some(0));

    cleanup(&dir);
}

/// A dumped `.cf32` window is a faithful capture: replaying it through a
/// fresh receiver decodes the very same frame.
#[test]
fn cf32_dump_redemodulates_to_same_frame() {
    let _l = lock();
    let dir = temp_dir("replay");
    fr::FlightRecorder::builder()
        .capture_dir(&dir)
        .iq_mode(IqCaptureMode::Always)
        .install()
        .unwrap();

    let p = ppdu(&[0xCA, 0xFE, 0xBA, 0xBE, 0x99]);
    let air = Dot154Modem::new(8).transmit(&p);
    let rx = ble_rx();
    let first = rx.try_receive(&air).unwrap();
    assert_eq!(first.psdu, p.psdu());

    let trace = fr::recent_traces().pop().unwrap();
    let iq_file = trace.iq_file.expect("Always mode dumps every attempt");
    let replay = fr::read_cf32(&dir.join(&iq_file)).unwrap();
    assert_eq!(replay.len(), air.len(), "window must cover the whole burst");

    fr::reset(); // second decode must not need (or touch) the recorder
    let second = rx.try_receive(&replay).unwrap();
    assert_eq!(second.psdu, p.psdu());
    assert!(second.fcs_ok());

    cleanup(&dir);
}

/// An exhausted despreading budget surfaces as the typed
/// `DespreadDistanceExceeded` failure, in the API error and in the trace.
#[test]
fn despread_budget_failure_is_typed() {
    let _l = lock();
    let dir = temp_dir("budget");
    fr::FlightRecorder::builder()
        .capture_dir(&dir)
        .install()
        .unwrap();

    use wazabee_dot154::msk::frame_chips_to_msk;
    let p = ppdu(&[5, 6, 7, 8]);
    let mut bits: Vec<u8> = (0..wazabee::tx::TX_WARMUP_BITS)
        .map(|k| (k % 2) as u8)
        .collect();
    let frame_start = bits.len();
    bits.extend(frame_chips_to_msk(&p.to_chips(), 0));
    // Flip three chips inside the first PSDU symbol (the 13th symbol: 10 SHR
    // + 2 PHR before it) — far from any codeword with a zero budget.
    for d in [10, 14, 20] {
        let i = frame_start + 12 * 32 + d;
        bits[i] ^= 1;
    }
    let air = BleModem::new(BlePhy::Le2M, 8).transmit_raw(&bits);

    let rx = ble_rx().with_max_despread_distance(0);
    let err = rx.try_receive(&air).unwrap_err();
    assert!(
        matches!(err, WazaBeeError::DespreadDistanceExceeded { max: 0, distance } if distance > 0),
        "{err:?}"
    );
    // The budget blow is the *first* committed attempt; re-armed attempts
    // behind it die their own deaths, so find the typed trace by reason.
    let traces = fr::recent_traces();
    let trace = traces
        .iter()
        .find(|t| t.failure == Some(RxFailure::DespreadDistanceExceeded))
        .expect("budget failure trace");
    assert!(trace.max_despread_distance().unwrap() > 0);

    // The same transmission decodes cleanly without the budget.
    let rx = ble_rx();
    assert_eq!(rx.try_receive(&air).unwrap().psdu, p.psdu());

    cleanup(&dir);
}

/// The NOFCS link type strips the trailing FCS from exported frames; the
/// WITHFCS link type keeps it. Both survive a write → read round trip.
#[test]
fn pcap_linktype_controls_fcs_handling() {
    let _l = lock();
    let modem = Dot154Modem::new(8);
    let p = ppdu(&[0x61, 0x88, 0x07]);

    for (linktype, strip) in [
        (LINKTYPE_IEEE802_15_4_WITHFCS, false),
        (LINKTYPE_IEEE802_15_4_NOFCS, true),
    ] {
        let dir = temp_dir(if strip { "nofcs" } else { "withfcs" });
        fr::FlightRecorder::builder()
            .capture_dir(&dir)
            .pcap_linktype(linktype)
            .install()
            .unwrap();
        let heard = ble_rx().try_receive(&modem.transmit(&p)).unwrap();
        assert_eq!(heard.psdu, p.psdu());
        fr::flush().unwrap();

        let pcap = read_pcap(&dir.join(fr::PCAP_FILE)).unwrap();
        assert_eq!(pcap.linktype, linktype);
        assert_eq!(pcap.packets.len(), 1);
        let expect = if strip {
            &p.psdu()[..p.psdu().len() - 2]
        } else {
            p.psdu()
        };
        assert_eq!(pcap.packets[0].bytes, expect);
        cleanup(&dir);
    }
}

/// Regression: the recorded CFO estimate used to average the first 8192
/// samples of the *whole* capture, so a long silent lead-in diluted the mean
/// toward zero and under-reported the offset. The estimate must window at
/// the sync sample offset instead.
#[test]
fn cfo_estimate_windows_at_sync_not_buffer_start() {
    let _l = lock();
    let dir = temp_dir("cfo");
    fr::FlightRecorder::builder()
        .capture_dir(&dir)
        .install()
        .unwrap();

    use wazabee_radio::medium::{Link, LinkConfig, RfFrame};
    // A frame long enough to fill the 8192-sample CFO window after sync.
    let p = ppdu(&[0x55; 40]);
    let tx_air = Dot154Modem::new(8).transmit(&p);
    let cfg = LinkConfig {
        snr_db: None,
        path_gain: 1.0,
        cfo_hz: 20.0e3,
        timing_offset: 0.0,
        max_lead_in: 4096,
        lead_out: 0,
    };
    let mut link = Link::new(cfg, 0); // seed 0 draws a 3957-sample lead-in
    let air = link.deliver(&RfFrame::new(2425, tx_air.clone(), 16.0e6), 2425);
    let lead_in = air.len() - tx_air.len();
    assert!(
        lead_in > 3000,
        "seed must draw a lead-in long enough to skew a buffer-start \
         window, got {lead_in}"
    );

    let heard = ble_rx().try_receive(&air).unwrap();
    assert_eq!(heard.psdu, p.psdu());
    let trace = fr::recent_traces().pop().unwrap();
    let cfo = trace.cfo_hz.expect("active trace records CFO");
    assert!(
        (cfo - 20.0e3).abs() < 2.0e3,
        "recorded CFO {cfo} Hz not within 10% of the injected 20 kHz"
    );

    cleanup(&dir);
}

/// A PHR announcing a reserved length (> 127) must surface as the typed
/// `PhrReserved` failure — flagged on the trace and counted in telemetry —
/// instead of being length-masked into a misparsed short frame.
#[test]
fn reserved_phr_sets_trace_flag_and_counter() {
    let _l = lock();
    let dir = temp_dir("phr");
    fr::FlightRecorder::builder()
        .capture_dir(&dir)
        .install()
        .unwrap();

    use wazabee_dot154::msk::frame_chips_to_msk;
    use wazabee_dot154::pn::pn_sequence;
    let mut chips: Vec<u8> = Vec::new();
    for _ in 0..8 {
        chips.extend(pn_sequence(0)); // preamble
    }
    chips.extend(pn_sequence(0x7)); // SFD low nibble
    chips.extend(pn_sequence(0xA)); // SFD high nibble
    chips.extend(pn_sequence(0x3)); // PHR low nibble
    chips.extend(pn_sequence(0x8)); // PHR high nibble -> 0x83 = 131
    for sym in [0x1, 0x4, 0x1, 0x5] {
        chips.extend(pn_sequence(sym)); // garbage "payload"
    }
    let mut bits: Vec<u8> = (0..wazabee::tx::TX_WARMUP_BITS)
        .map(|k| (k % 2) as u8)
        .collect();
    bits.extend(frame_chips_to_msk(&chips, 0));
    let air = BleModem::new(BlePhy::Le2M, 8).transmit_raw(&bits);

    let err = ble_rx().try_receive(&air).unwrap_err();
    assert_eq!(err, WazaBeeError::PhrReserved { value: 131 });

    let traces = fr::recent_traces();
    let trace = traces
        .iter()
        .find(|t| t.failure == Some(RxFailure::PhrReserved))
        .expect("typed PhrReserved trace");
    assert!(trace.phr_reserved, "trace must carry the reserved-PHR flag");

    let s = wazabee_telemetry::summary();
    assert!(s.contains("wazabee.rx.phr.reserved"), "summary:\n{s}");

    cleanup(&dir);
}

/// Per-failure-reason telemetry counters ride along with each RX attempt and
/// surface in the summary's derived section.
#[test]
fn failure_counters_reach_telemetry_summary() {
    let _l = lock();
    let mut noise = vec![wazabee_dsp::Iq::ZERO; 40_000];
    wazabee_dsp::AwgnSource::new(13, 0.7).add_to(&mut noise);
    assert_eq!(ble_rx().try_receive(&noise), Err(WazaBeeError::NoSync));

    let s = wazabee_telemetry::summary();
    assert!(s.contains("rx.fail.no_sync"), "summary:\n{s}");
    assert!(s.contains("wazabee.rx.fail.no_sync"), "summary:\n{s}");
}

/// A decode's flight-recorder trace names the `rx.decode` span that covered
/// it whether or not a telemetry trace consumer is attached; attached, that
/// id resolves to the span's record in the telemetry trace, and detached
/// the trace keeps no records at all.
#[test]
fn span_join_holds_with_the_trace_attached_or_not() {
    let _l = lock();
    let dir = temp_dir("span-join");
    fr::FlightRecorder::builder().install().unwrap();
    let air = Dot154Modem::new(8).transmit(&ppdu(&[0x01, 0x08, 0x42]));
    for attached in [false, true] {
        wazabee_telemetry::set_trace_attached(attached);
        wazabee_telemetry::drain_trace();
        ble_rx().try_receive(&air).unwrap();
        let span_id = fr::recent_traces()
            .last()
            .and_then(|t| t.span_id)
            .expect("the decode linked its span");
        let (events, _) = wazabee_telemetry::drain_trace();
        if attached {
            let record = events
                .iter()
                .find(|e| e.span_id == span_id)
                .expect("the linked span has a trace record");
            assert_eq!(record.name, "rx.decode");
        } else {
            assert!(events.is_empty(), "detached trace recorded {events:?}");
        }
    }
    cleanup(&dir);
}
