#![warn(missing_docs)]

//! # wazabee-dsp
//!
//! Complex-baseband DSP substrate for the WazaBee reproduction (Cayre et al.,
//! *WazaBee: attacking Zigbee networks by diverting Bluetooth Low Energy
//! chips*, DSN 2021).
//!
//! Every radio in the reproduction — BLE, IEEE 802.15.4, Enhanced ShockBurst —
//! is simulated at the IQ-sample level so the paper's central claim (the
//! waveform compatibility of GFSK/GMSK and O-QPSK-with-half-sine) is exercised
//! for real, not assumed. This crate provides the shared building blocks:
//!
//! * [`Iq`] — complex baseband samples and buffer statistics,
//! * [`IqBuf`]/[`IqSlice`] — planar (separate-rail) `f32` buffers and
//!   zero-copy views, the storage the receive hot path runs on,
//! * [`simd`] — explicit-width `f32x8`-style kernels (discriminator, window
//!   and sliding sums, sign words, superposition) with bit-identical
//!   `*_scalar` references,
//! * [`Nco`] — oscillators for carrier offsets and channel shifts,
//! * [`Fir`] and [`gaussian`]/[`halfsine`] — pulse shaping for GFSK and
//!   O-QPSK ([`gaussian::shape_nrz`] fills its output from a per-call table),
//! * [`discriminator`] — FM discrimination (the receiver side of FSK),
//! * [`AwgnSource`] — deterministic, seedable channel noise,
//! * [`correlate`] — the match type and the byte-per-bit sync-search
//!   oracle,
//! * [`io`] — shared IQ sample-format codecs (`.cf32`, RTL-SDR u8
//!   offset-128) used by the flight recorder and the serve ingest plane,
//! * [`bits`] — LSB-first bit packing shared by both protocols,
//! * [`packed`] — word-packed bit streams: XOR+`count_ones` Hamming and
//!   the one sync search, a pigeonhole prefilter over 64 alignments per
//!   step that scores only its candidates,
//! * [`stream`] — the stateful form of that search: the look-back bits
//!   persist across chunk boundaries so search resumes from an arbitrary
//!   bit offset.
//!
//! ## Example: a complete FSK link in a few lines
//!
//! ```
//! use wazabee_dsp::{bits, discriminator, fir, gaussian, AwgnSource, Iq, Nco};
//!
//! let sps = 8; // samples per symbol
//! let bits_tx = bits::bytes_to_bits_lsb(&[0xC3, 0x5A]);
//!
//! // FSK modulate: phase ramps up for 1, down for 0 (MSK, h = 0.5).
//! let nrz = bits::bits_to_nrz(&bits_tx);
//! let shaped = gaussian::shape_nrz_rect(&nrz, sps);
//! let step = std::f64::consts::FRAC_PI_2 / sps as f64;
//! let mut phase = 0.0;
//! let tx: Vec<Iq> = shaped
//!     .iter()
//!     .map(|&s| {
//!         phase += s * step;
//!         Iq::from_polar(1.0, phase)
//!     })
//!     .collect();
//!
//! // Add noise, then demodulate with a discriminator + integrate-and-dump.
//! let mut rx = tx.clone();
//! AwgnSource::from_snr_db(1, 20.0, 1.0).add_to(&mut rx);
//! let freq = discriminator::discriminate(&rx);
//! let soft = fir::integrate_and_dump(&freq[..freq.len() - freq.len() % sps], sps);
//! let bits_rx = bits::nrz_to_bits(&soft);
//! assert_eq!(&bits_rx[..bits_tx.len() - 1], &bits_tx[..bits_tx.len() - 1]);
//! ```

pub mod awgn;
pub mod bits;
pub mod correlate;
pub mod discriminator;
pub mod fir;
pub mod gaussian;
pub mod halfsine;
pub mod io;
pub mod iq;
pub mod iqbuf;
pub mod osc;
pub mod packed;
pub mod par;
pub mod resample;
pub mod simd;
pub mod spectrum;
pub mod stream;

pub use awgn::AwgnSource;
pub use fir::Fir;
pub use iq::Iq;
pub use iqbuf::{IqBuf, IqSlice};
pub use osc::Nco;
pub use packed::PackedBits;
pub use stream::StreamCorrelator;

#[cfg(test)]
mod lib_tests {
    #[test]
    fn reexports_are_usable() {
        let s = crate::Iq::new(1.0, 0.0);
        assert_eq!(s.amplitude(), 1.0);
        let _ = crate::Nco::new(1.0, 2.0);
        let _ = crate::Fir::new(vec![1.0]);
        let _ = crate::AwgnSource::new(0, 0.0);
    }
}
