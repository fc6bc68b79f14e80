#![warn(missing_docs)]

//! # wazabee-sim
//!
//! A deterministic discrete-event **shared-spectrum simulator** for the
//! WazaBee reproduction: the paper's attack scenarios (§VI) play out on a
//! *contended* 2.4 GHz band, and this crate is where that contention is
//! physical rather than assumed.
//!
//! Every transmission — Zigbee O-QPSK from [`wazabee_dot154`], diverted-BLE
//! GFSK from [`wazabee`] — is modulated to IQ and placed on a per-channel
//! sample timeline. Overlapping transmissions are *summed* in the complex
//! plane ([`wazabee_radio::combine_at`]); each receiver then demodulates the
//! superposed waveform with the real streaming receiver
//! ([`wazabee::StreamingRx`]). Whether a collision destroys both frames,
//! one (capture effect), or neither is decided by the demodulator, never by
//! a packet-level coin flip.
//!
//! On top of that medium:
//!
//! * **CSMA/CA** — Zigbee nodes contend with the unslotted algorithm of
//!   802.15.4 §6.2.5 ([`wazabee_dot154::csma`]): BE backoff, a CCA energy
//!   measurement integrated over the live spectrum buffer, ACK wait, and
//!   `macMaxFrameRetries` retransmissions.
//! * **Attackers** — a WazaBee injector (no carrier sense), a reactive
//!   jammer, an ACK spoofer that forges acknowledgements faster than the
//!   honest turnaround, and an energy-depletion flooder.
//! * **IDS** — a passive monitor node wrapping [`wazabee_ids`] observes
//!   every busy period.
//!
//! Runs are deterministic: same seed, same node set, same committed event
//! log — typed [`LogRecord`]s whose rendered lines are byte-identical across
//! thread counts and IQ chunk sizes.
//!
//! ## Example
//!
//! A WazaBee injection accepted by a victim coordinator through the full
//! IQ path:
//!
//! ```
//! use wazabee_dot154::mac::MacFrame;
//! use wazabee_dot154::Dot154Channel;
//! use wazabee_radio::Instant;
//! use wazabee_sim::{SimConfig, SpectrumSim};
//! use wazabee_zigbee::{NodeConfig, NodeRole, XbeeNode, XbeePayload};
//!
//! let ch = Dot154Channel::new(14).unwrap();
//! let mut sim = SpectrumSim::new(SimConfig::ideal());
//! let coord = sim.add_zigbee(XbeeNode::new(
//!     NodeConfig { pan: 0x1234, short_addr: 0x0042, channel: ch },
//!     NodeRole::Coordinator,
//! ));
//! let attacker = sim.add_wazabee_injector(ch, 1.0);
//! let forged = MacFrame::data(
//!     0x1234, 0x0063, 0x0042, 77, XbeePayload::reading(4242).to_bytes(),
//! );
//! sim.inject_at(attacker, Instant(1_000), forged);
//! sim.run_until(Instant(0).plus_ms(10));
//! let victim = sim.zigbee(coord).unwrap();
//! assert_eq!(victim.readings()[0].value, 4242);
//! ```

pub mod config;
mod log;
pub mod node;
mod shard;
mod sim;
mod spectrum;

pub use config::SimConfig;
pub use log::{AlertKind, LogKind, LogRecord, Why};
pub use node::{FlooderConfig, JammerConfig, NodeClass, SimNode};
pub use sim::{SimReport, SimStats, SpectrumSim};
