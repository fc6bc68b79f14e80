//! Causal decode tracing end to end: span nesting across threads, bounded
//! ring eviction semantics, and the Chrome Trace Event export — validated
//! with the in-repo JSON parser the same way Perfetto would consume it.
//!
//! The trace ring is process-global, so every test takes the file-local
//! lock and resets telemetry on entry and exit.

use std::sync::{Mutex, MutexGuard};

use wazabee::WazaBeeRx;
use wazabee_ble::{BleModem, BlePhy};
use wazabee_dot154::fcs::append_fcs;
use wazabee_dot154::Ppdu;
use wazabee_integration::{parse_json, Json};
use wazabee_telemetry::{TraceEvent, TraceKind, TRACE_CAPACITY};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Finds the enter record for a span by name.
fn enter<'a>(events: &'a [TraceEvent], name: &str) -> &'a TraceEvent {
    events
        .iter()
        .find(|e| e.name == name && matches!(e.kind, TraceKind::SpanEnter))
        .unwrap_or_else(|| panic!("no enter record for {name}"))
}

// ---------------------------------------------------------------------------
// Parent/child links across threads
// ---------------------------------------------------------------------------

#[test]
fn span_nesting_is_per_thread_and_parents_resolve() {
    let _l = lock();
    wazabee_telemetry::reset();

    // Two threads build the same two-level nesting concurrently. Each
    // thread's child must point at *its own* parent — a process-global
    // current-span would cross the streams.
    let handles: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(|| {
                let outer = wazabee_telemetry::scope!("ct.outer");
                let inner = wazabee_telemetry::scope!("ct.inner", step = 1u32);
                (outer.id(), inner.id())
            })
        })
        .collect();
    let ids: Vec<(u64, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let (events, dropped) = wazabee_telemetry::drain_trace();
    assert_eq!(dropped, 0);

    for &(outer_id, inner_id) in &ids {
        let inner_enter = events
            .iter()
            .find(|e| e.span_id == inner_id && matches!(e.kind, TraceKind::SpanEnter))
            .expect("inner enter recorded");
        assert_eq!(
            inner_enter.parent_id, outer_id,
            "child must link to its own thread's parent"
        );
        // Parent and child records agree on the thread.
        let outer_enter = events
            .iter()
            .find(|e| e.span_id == outer_id && matches!(e.kind, TraceKind::SpanEnter))
            .expect("outer enter recorded");
        assert_eq!(inner_enter.thread_id, outer_enter.thread_id);
        assert_eq!(outer_enter.parent_id, 0, "outer span is a root");
    }

    // The two workers got distinct thread ids and distinct span ids.
    let t0 = enter(&events, "ct.outer").thread_id;
    assert!(
        events
            .iter()
            .filter(|e| e.name == "ct.outer")
            .any(|e| e.thread_id != t0),
        "both workers mapped to one thread id"
    );
    assert_ne!(ids[0], ids[1]);

    wazabee_telemetry::reset();
}

// ---------------------------------------------------------------------------
// Bounded-ring eviction
// ---------------------------------------------------------------------------

#[test]
fn eviction_marks_orphans_instead_of_inventing_roots() {
    let _l = lock();
    wazabee_telemetry::reset();

    // One long-lived parent, then enough children to evict the parent's
    // enter record (each child is an enter + exit pair).
    let parent = wazabee_telemetry::scope!("ct.evicted.parent");
    let parent_id = parent.id();
    for k in 0..TRACE_CAPACITY {
        let _child = wazabee_telemetry::scope!("ct.child", k = k);
    }

    let doc = wazabee_telemetry::trace_chrome_json();
    let json = parse_json(&doc).expect("export is valid JSON");

    // The parent's own records were pushed out of the ring...
    let events = json.get("traceEvents").unwrap().as_array().unwrap();
    assert!(
        !events.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("span_id"))
                .and_then(Json::as_f64)
                == Some(parent_id as f64)
        }),
        "parent record unexpectedly still in the ring"
    );
    // ...so surviving children are explicitly flagged, not silently reparented.
    let children: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("ct.child"))
        .collect();
    assert!(!children.is_empty());
    for child in &children {
        let args = child.get("args").unwrap();
        assert_eq!(
            args.get("parent").and_then(Json::as_f64),
            Some(parent_id as f64)
        );
        assert_eq!(
            args.get("parent_evicted").and_then(Json::as_bool),
            Some(true),
            "child of an evicted parent must carry the orphan marker: {child:?}"
        );
    }
    // The eviction count is reported, not hidden.
    let evicted = json
        .get("otherData")
        .unwrap()
        .get("evicted_records")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(evicted > 0.0, "eviction count missing from export");

    drop(parent);
    wazabee_telemetry::reset();
}

// ---------------------------------------------------------------------------
// Chrome Trace export of a real decode
// ---------------------------------------------------------------------------

#[test]
fn decode_spans_export_with_frame_args_and_resolvable_parents() {
    let _l = lock();
    wazabee_telemetry::reset();

    // Stream one genuine frame through the receiver under an enclosing
    // span, as the sim's per-receiver window does.
    let tx = wazabee::WazaBeeTx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap();
    let rx = WazaBeeRx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap();
    let ppdu = Ppdu::new(append_fcs(&[0xAB, 0xCD, 1, 2, 3])).unwrap();
    let air = tx.transmit(&ppdu);
    {
        let _window = wazabee_telemetry::scope!("ct.window", chan = 15u8);
        let mut stream = rx.stream();
        let mut results = Vec::new();
        for chunk in air.chunks(1500) {
            results.extend(stream.push(chunk));
        }
        results.extend(stream.finish());
        let frame = results.into_iter().find_map(Result::ok).unwrap();
        assert_eq!(frame.psdu, ppdu.psdu());
    }

    let doc = wazabee_telemetry::trace_chrome_json();
    let json = parse_json(&doc).expect("export is valid JSON");
    let events = json.get("traceEvents").unwrap().as_array().unwrap();

    // Every span id mentioned as a parent resolves to a span in the export.
    let mut span_ids = std::collections::HashSet::new();
    for e in events.iter() {
        if let Some(id) = e
            .get("args")
            .and_then(|a| a.get("span_id"))
            .and_then(Json::as_f64)
        {
            span_ids.insert(id as u64);
        }
    }
    let decode: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("rx.decode"))
        .collect();
    assert!(!decode.is_empty(), "no rx.decode span exported:\n{doc}");
    for d in &decode {
        let args = d.get("args").unwrap();
        assert_eq!(d.get("ph").and_then(Json::as_str), Some("X"));
        for key in ["frame", "bit", "lane", "sync_errors"] {
            assert!(
                args.get(key).and_then(Json::as_f64).is_some(),
                "decode span missing {key} arg: {d:?}"
            );
        }
        let parent = args.get("parent").and_then(Json::as_f64).unwrap() as u64;
        assert!(
            span_ids.contains(&parent),
            "decode span's parent {parent} not resolvable in export"
        );
    }
    // The enclosing window span is the decode spans' ancestor.
    let window = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("ct.window"))
        .expect("window span exported");
    let window_id = window
        .get("args")
        .unwrap()
        .get("span_id")
        .and_then(Json::as_f64)
        .unwrap() as u64;
    assert!(
        decode.iter().any(|d| {
            d.get("args")
                .unwrap()
                .get("parent")
                .and_then(Json::as_f64)
                .map(|p| p as u64)
                == Some(window_id)
        }),
        "no decode span nested under the receiver window"
    );

    wazabee_telemetry::reset();
}

// ---------------------------------------------------------------------------
// /healthz surfaces a tripped rule
// ---------------------------------------------------------------------------

#[test]
fn tripped_rule_surfaces_in_snapshot_and_health_json() {
    let _l = lock();
    wazabee_telemetry::reset();

    wazabee_telemetry::health_rule!(
        "ct.extra_frames",
        wazabee_telemetry::Signal::counter("ct.ids.extra_frames"),
        > 0
    );
    let healthy = parse_json(&wazabee_telemetry::health_json()).unwrap();
    assert_eq!(healthy.get("status").and_then(Json::as_str), Some("ok"));

    wazabee_telemetry::counter!("ct.ids.extra_frames").add(2);
    let sick = parse_json(&wazabee_telemetry::health_json()).unwrap();
    assert_eq!(sick.get("status").and_then(Json::as_str), Some("alert"));
    let alert = sick
        .get("alerts")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .find(|a| a.get("name").and_then(Json::as_str) == Some("ct.extra_frames"))
        .expect("tripped rule listed");
    assert_eq!(alert.get("value").and_then(Json::as_f64), Some(2.0));

    // The same alert appears in the full snapshot document.
    let snap = parse_json(&wazabee_telemetry::snapshot_json()).unwrap();
    assert!(
        snap.get("alerts")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .any(|a| a.get("name").and_then(Json::as_str) == Some("ct.extra_frames")),
        "alert missing from snapshot_json"
    );

    wazabee_telemetry::reset();
}
