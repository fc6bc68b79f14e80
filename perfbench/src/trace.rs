//! The benchmark's own spans: recorded around its calls into each layer,
//! kept in memory and written out once the run ends.
//!
//! A span has a name, a start, an end, the span that caused it (its
//! parent) and an `id` naming the unit of work it covers: one chunk, one
//! session or one quantum step. Self time is a span's duration minus the
//! part of it that its child spans cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Unique span handles across every thread of the run; 0 means "no span".
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique handle of this span within the run.
    pub uid: u64,
    /// Handle of the span that caused this one.
    pub parent: Option<u64>,
    /// Layer boundary the span covers, e.g. `stream.push`.
    pub name: &'static str,
    /// Chunk, session or quantum-step number.
    pub id: u64,
    /// Recording thread, numbered by the benchmark.
    pub thread: u32,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// Handle children pass as their parent (0 when tracing is off).
    pub uid: u64,
    /// When the span started.
    pub start: Instant,
}

/// One thread's span buffer. Recording can be switched on and off between
/// units of work, so a run can alternate traced and untraced stretches.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A buffer for thread number `thread`, timing from `epoch`.
    pub fn new(epoch: Instant, thread: u32, on: bool) -> Self {
        Tracer {
            epoch,
            thread,
            on,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off for the following spans.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a span now.
    pub fn open(&self) -> Open {
        let uid = if self.on {
            NEXT_UID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            uid,
            start: Instant::now(),
        }
    }

    /// Ends `open` now and keeps it (if it was opened while recording).
    pub fn close(&mut self, open: Open, name: &'static str, id: u64, parent: u64) {
        self.close_at(open, Instant::now(), name, id, parent);
    }

    /// Ends `open` at `end` and keeps it (if it was opened while
    /// recording).
    pub fn close_at(&mut self, open: Open, end: Instant, name: &'static str, id: u64, parent: u64) {
        if open.uid == 0 {
            return;
        }
        self.spans.push(Span {
            uid: open.uid,
            parent: (parent != 0).then_some(parent),
            name,
            id,
            thread: self.thread,
            start_ns: self.ns(open.start),
            end_ns: self.ns(end),
        });
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Takes over another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Every span kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span (index-aligned with `spans`), in nanoseconds:
/// duration minus the union of its children's intervals clipped to it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get(&s.uid) else {
                return dur;
            };
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|&(a, b)| b > a)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in clipped {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            dur - covered
        })
        .collect()
}

/// Writes every span, with its self time, as one JSON document.
pub fn write_json(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    let mut out = String::with_capacity(128 * spans.len() + 256);
    let _ = write!(out, "{{{header},\"spans\":[");
    for (k, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        if k > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"uid\":{},\"parent\":{parent},\"thread\":{},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.id, s.uid, s.thread, s.start_ns, s.end_ns,
        );
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(uid: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            uid,
            parent,
            name: "t",
            id: uid,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // Overlapping children count once; the part past the parent's
            // end is clipped.
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
            span(4, Some(1), 90, 120),
            // A grandchild reduces its own parent only.
            span(5, Some(2), 12, 18),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn off_tracer_keeps_nothing_and_parents_link_by_uid() {
        let epoch = Instant::now();
        let mut off = Tracer::new(epoch, 0, false);
        let o = off.open();
        assert_eq!(o.uid, 0);
        off.close(o, "x", 0, 0);
        assert!(off.spans().is_empty());

        let mut main = Tracer::new(epoch, 0, true);
        let mut worker = Tracer::new(epoch, 1, true);
        let root = main.open();
        let child = worker.open();
        worker.close(child, "child", 7, root.uid);
        main.close(root, "root", 1, 0);
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(spans.len(), 2);
        let c = spans.iter().find(|s| s.name == "child").unwrap();
        let r = spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(c.parent, Some(r.uid));
        assert_eq!((c.id, c.thread), (7, 1));
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
        let selfs = self_times_ns(spans);
        assert!(selfs.iter().all(|&s| s <= r.end_ns - r.start_ns));
    }
}
