#![warn(missing_docs)]

//! # wazabee-zigbee
//!
//! The Zigbee/XBee application substrate of the WazaBee reproduction (Cayre
//! et al., DSN 2021): the victim network of the paper's attack scenarios.
//!
//! The paper's testbed (§VI-A) is a small home-automation network — an XBee
//! sensor reporting an integer every two seconds to an XBee coordinator that
//! acknowledges and displays it. This crate simulates that network
//! deterministically:
//!
//! * [`at`] — XBee-style AT commands (including the remote `CH` change that
//!   Scenario B abuses for denial of service),
//! * [`xbee`] — over-the-air application payloads,
//! * [`node`] — sensor and coordinator behaviour,
//! * [`network`] — a deterministic event-driven simulator with an air log
//!   for sniffing and an injection port for attackers.
//!
//! ## Example
//!
//! ```
//! use wazabee_radio::Instant;
//! use wazabee_zigbee::ZigbeeNetwork;
//!
//! let mut net = ZigbeeNetwork::paper_testbed();
//! net.run_until(Instant(0).plus_ms(6_500));
//! assert_eq!(net.coordinator().readings().len(), 3);
//! ```

pub mod api;
pub mod at;
pub mod network;
pub mod node;
pub mod xbee;

pub use api::{parse_stream, ApiFrame};
pub use at::{AtCommand, AtStatus};
pub use network::{AirRecord, ZigbeeNetwork};
pub use node::{JoinState, NodeConfig, NodeRole, Reading, XbeeNode};
pub use xbee::XbeePayload;
