//! # wazabee-bench
//!
//! The benchmark harness of the WazaBee reproduction: one regenerator per
//! table and figure of the paper (Cayre et al., DSN 2021), plus ablation
//! studies for the design decisions called out in DESIGN.md.
//!
//! The heart of the crate is [`table3`], the engine behind the paper's main
//! evaluation (Table III): transmission and reception primitive assessment
//! over all sixteen Zigbee channels on two chip models, under an office
//! channel shared with WiFi on channels 6 and 11.

pub mod lanes;
pub mod sweep;
pub mod table3;

pub use sweep::{default_threads, par_map, par_map_with};
pub use table3::{run_primitive, ChannelResult, Primitive, Table3Config};
