//! `wazabee-serve`: the WazaBee decode plane as a long-running,
//! multi-tenant service.
//!
//! Everything below `wazabee` decodes one capture at a time inside one call
//! stack. This crate turns that pipeline into a *service*: many concurrent
//! IQ streams — TCP sockets, unix sockets, growing capture files — each
//! become a session, fanned across a fixed pool of decode workers that
//! recycle [`wazabee::stream::StreamingRx`] engines between tenants
//! (`flush` → `reset`, allocations retained).
//!
//! ```text
//!  TCP / unix accept ─┐                      ┌─ worker 0: WazaBeeRx + engine pool
//!  file tails ────────┼─ ingest threads ──▶  │  worker 1:   "       "
//!                     │  (wire protocol,     │  ...
//!                     └─  bounded queues)    └─ per-session pcap/jsonl/report
//! ```
//!
//! * **Wire protocol** ([`proto`]): length-prefixed records carrying a
//!   session name, cf32 or u8-offset-128 sample batches, and an end marker.
//! * **Backpressure** ([`session`]): one bounded chunk queue per session.
//!   Sockets block (TCP pushes back on the client); file tails drop and
//!   count (`chunks_dropped`), because a file cannot be slowed down.
//! * **Service** ([`server`]): [`Server::start`], then [`Server::bind_tcp`]
//!   / [`Server::bind_unix`] / [`Server::tail_file`];
//!   [`Server::shutdown`] drains every queue, flushes every recorder and
//!   returns one [`SessionReport`] per session.
//! * **Observability**: `serve.*` counters, gauges and histograms flow into
//!   the existing telemetry plane — and therefore into the live snapshot
//!   server when `WAZABEE_TELEMETRY_ADDR` is set; per-session artifacts
//!   (`frames.pcap`, `frames.jsonl`, `report.json`) land under
//!   [`ServeConfig::output_dir`].
//!
//! # Example
//!
//! ```
//! use std::io::Write;
//! use wazabee_serve::{proto, ServeConfig, Server};
//! use wazabee_dsp::io::SampleFormat;
//!
//! let mut server = Server::start(ServeConfig {
//!     workers: 2,
//!     ..ServeConfig::default()
//! });
//! let addr = server.bind_tcp("127.0.0.1:0").unwrap();
//!
//! // A client session: name, samples, end.
//! let mut conn = std::net::TcpStream::connect(addr).unwrap();
//! proto::write_hello(&mut conn, "doc-example").unwrap();
//! proto::write_samples(&mut conn, SampleFormat::Cf32, &[0u8; 64]).unwrap();
//! proto::write_end(&mut conn).unwrap();
//! conn.flush().unwrap();
//! drop(conn);
//!
//! let summary = server.shutdown();
//! assert_eq!(summary.reports.len(), 1);
//! assert_eq!(summary.reports[0].chunks_in, 1);
//! ```

#![warn(missing_docs)]

pub mod proto;
pub mod server;
pub(crate) mod session;
pub(crate) mod tail;

pub use server::{ServeConfig, ServeSummary, Server};
pub use session::SessionReport;
