//! The committed event log: one typed, `Copy` record per MAC/PHY event.
//!
//! Shards push records on their hot paths — no formatting and no
//! allocation beyond the log's own growth. Text exists only where a reader
//! renders a record with [`std::fmt::Display`], which produces the
//! committed log line byte for byte.

use std::fmt;

use wazabee_dot154::mac::FrameType;
use wazabee_ids::Alert;

use crate::node::NodeClass;

/// One committed event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// Simulated time of the event, in µs.
    pub t: u64,
    /// Global id of the node the event belongs to. A collision belongs to
    /// its channel, not to a node: its record carries 0 here and renders no
    /// node.
    pub node: u32,
    /// What happened.
    pub kind: LogKind,
}

// The merge sorts and moves every record once per quantum: keep it small.
const _: () = assert!(std::mem::size_of::<LogRecord>() <= 24);

/// The event a [`LogRecord`] commits, one variant per log line type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogKind {
    /// A WazaBee injector keyed a scheduled frame.
    Inject {
        /// MAC sequence number.
        seq: u8,
    },
    /// A flooder keyed a flood frame.
    Flood {
        /// MAC sequence number.
        seq: u8,
    },
    /// A CCA measurement found the channel busy.
    CcaBusy,
    /// A CSMA attempt ended in `CHANNEL_ACCESS_FAILURE`.
    CsmaFailure,
    /// An oversize head frame was dropped unsent.
    DropUnencodable,
    /// The head frame left the queue successfully.
    Complete {
        /// MAC sequence number.
        seq: u8,
        /// Sent without an ACK request, or acknowledged.
        why: Why,
    },
    /// The head frame was dropped past the retry budget.
    Abandon {
        /// MAC sequence number, if a frame was queued.
        seq: Option<u8>,
        /// Why the last attempt failed.
        why: Why,
    },
    /// The head frame will be retried.
    Retry {
        /// MAC sequence number, if a frame is queued.
        seq: Option<u8>,
        /// Why the attempt failed.
        why: Why,
    },
    /// The ACK wait for a sent frame expired.
    AckTimeout {
        /// MAC sequence number.
        seq: u8,
    },
    /// A half-duplex node was keyed when its ACK was due.
    AckSuppressed,
    /// An ACK spoofer keyed a forged acknowledgement.
    SpoofedAck {
        /// MAC sequence number.
        seq: u8,
    },
    /// A node keyed up its radio.
    Keyup {
        /// The node's behaviour class.
        class: NodeClass,
        /// MAC sequence number of a frame (none for a jamming burst).
        seq: Option<u8>,
        /// Air time, in µs.
        dur_us: u32,
    },
    /// Two or more frames overlapped in a busy period.
    Collision {
        /// 802.15.4 channel number.
        ch: u8,
        /// Shard-local busy-period counter.
        cluster: u32,
        /// Frame transmissions in the busy period.
        frames: u32,
    },
    /// A node decoded a frame.
    Rx {
        /// MAC frame type.
        frame_type: FrameType,
        /// MAC sequence number.
        seq: u8,
    },
    /// An IDS monitor raised an alert.
    Alert {
        /// The alert's class.
        kind: AlertKind,
    },
}

/// Why a head frame completed or an attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Why {
    /// A frame without an ACK request left the air.
    Sent,
    /// The frame's acknowledgement arrived.
    Acked,
    /// CSMA gave up on the channel.
    ChannelAccess,
    /// The ACK wait expired.
    NoAck,
}

impl fmt::Display for Why {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Why::Sent => "sent",
            Why::Acked => "acked",
            Why::ChannelAccess => "channel-access",
            Why::NoAck => "no-ack",
        })
    }
}

/// The class of an IDS [`Alert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// [`Alert::CrossProtocolFrame`].
    CrossProtocol,
    /// [`Alert::UnexpectedDot154`].
    UnexpectedDot154,
    /// [`Alert::TrafficAnomaly`].
    TrafficAnomaly,
}

impl From<&Alert> for AlertKind {
    fn from(alert: &Alert) -> Self {
        match alert {
            Alert::CrossProtocolFrame { .. } => AlertKind::CrossProtocol,
            Alert::UnexpectedDot154 { .. } => AlertKind::UnexpectedDot154,
            Alert::TrafficAnomaly { .. } => AlertKind::TrafficAnomaly,
        }
    }
}

impl fmt::Display for AlertKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlertKind::CrossProtocol => "cross-protocol",
            AlertKind::UnexpectedDot154 => "unexpected-dot154",
            AlertKind::TrafficAnomaly => "traffic-anomaly",
        })
    }
}

impl fmt::Display for LogRecord {
    /// Renders the committed log line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (t, node) = (self.t, self.node);
        match self.kind {
            LogKind::Inject { seq } => write!(f, "t={t} inject node={node} seq={seq}"),
            LogKind::Flood { seq } => write!(f, "t={t} flood node={node} seq={seq}"),
            LogKind::CcaBusy => write!(f, "t={t} cca-busy node={node}"),
            LogKind::CsmaFailure => write!(f, "t={t} csma-failure node={node}"),
            LogKind::DropUnencodable => write!(f, "t={t} drop-unencodable node={node}"),
            LogKind::Complete { seq, why } => {
                write!(f, "t={t} complete node={node} seq={seq} why={why}")
            }
            LogKind::Abandon { seq, why } => {
                write!(f, "t={t} abandon node={node} seq={seq:?} why={why}")
            }
            LogKind::Retry { seq, why } => {
                write!(f, "t={t} retry node={node} seq={seq:?} why={why}")
            }
            LogKind::AckTimeout { seq } => write!(f, "t={t} ack-timeout node={node} seq={seq}"),
            LogKind::AckSuppressed => write!(f, "t={t} ack-suppressed node={node}"),
            LogKind::SpoofedAck { seq } => write!(f, "t={t} spoofed-ack node={node} seq={seq}"),
            LogKind::Keyup { class, seq, dur_us } => write!(
                f,
                "t={t} keyup node={node} kind={} seq={seq:?} dur={dur_us}",
                class.name()
            ),
            LogKind::Collision {
                ch,
                cluster,
                frames,
            } => write!(
                f,
                "t={t} collision ch={ch} cluster={cluster} frames={frames}"
            ),
            LogKind::Rx { frame_type, seq } => {
                write!(f, "t={t} rx node={node} type={frame_type:?} seq={seq}")
            }
            LogKind::Alert { kind } => write!(f, "t={t} alert node={node} kind={kind}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(node: u32, kind: LogKind) -> String {
        LogRecord {
            t: 1234,
            node,
            kind,
        }
        .to_string()
    }

    #[test]
    fn every_kind_renders_its_legacy_line() {
        let cases: &[(LogKind, &str)] = &[
            (LogKind::Inject { seq: 7 }, "t=1234 inject node=5 seq=7"),
            (LogKind::Flood { seq: 255 }, "t=1234 flood node=5 seq=255"),
            (LogKind::CcaBusy, "t=1234 cca-busy node=5"),
            (LogKind::CsmaFailure, "t=1234 csma-failure node=5"),
            (LogKind::DropUnencodable, "t=1234 drop-unencodable node=5"),
            (
                LogKind::Complete {
                    seq: 7,
                    why: Why::Sent,
                },
                "t=1234 complete node=5 seq=7 why=sent",
            ),
            (
                LogKind::Complete {
                    seq: 0,
                    why: Why::Acked,
                },
                "t=1234 complete node=5 seq=0 why=acked",
            ),
            (
                LogKind::Abandon {
                    seq: Some(7),
                    why: Why::ChannelAccess,
                },
                "t=1234 abandon node=5 seq=Some(7) why=channel-access",
            ),
            (
                LogKind::Abandon {
                    seq: None,
                    why: Why::NoAck,
                },
                "t=1234 abandon node=5 seq=None why=no-ack",
            ),
            (
                LogKind::Retry {
                    seq: Some(7),
                    why: Why::NoAck,
                },
                "t=1234 retry node=5 seq=Some(7) why=no-ack",
            ),
            (
                LogKind::Retry {
                    seq: None,
                    why: Why::ChannelAccess,
                },
                "t=1234 retry node=5 seq=None why=channel-access",
            ),
            (
                LogKind::AckTimeout { seq: 7 },
                "t=1234 ack-timeout node=5 seq=7",
            ),
            (LogKind::AckSuppressed, "t=1234 ack-suppressed node=5"),
            (
                LogKind::SpoofedAck { seq: 7 },
                "t=1234 spoofed-ack node=5 seq=7",
            ),
            (
                LogKind::Rx {
                    frame_type: FrameType::Data,
                    seq: 7,
                },
                "t=1234 rx node=5 type=Data seq=7",
            ),
            (
                LogKind::Rx {
                    frame_type: FrameType::Ack,
                    seq: 0,
                },
                "t=1234 rx node=5 type=Ack seq=0",
            ),
            (
                LogKind::Alert {
                    kind: AlertKind::CrossProtocol,
                },
                "t=1234 alert node=5 kind=cross-protocol",
            ),
            (
                LogKind::Alert {
                    kind: AlertKind::UnexpectedDot154,
                },
                "t=1234 alert node=5 kind=unexpected-dot154",
            ),
            (
                LogKind::Alert {
                    kind: AlertKind::TrafficAnomaly,
                },
                "t=1234 alert node=5 kind=traffic-anomaly",
            ),
        ];
        for &(kind, want) in cases {
            assert_eq!(line(5, kind), want);
        }
        assert_eq!(
            line(
                0,
                LogKind::Collision {
                    ch: 11,
                    cluster: 42,
                    frames: 2,
                }
            ),
            "t=1234 collision ch=11 cluster=42 frames=2"
        );
    }

    #[test]
    fn every_keyup_class_renders_its_legacy_line() {
        let cases = [
            (
                NodeClass::Zigbee,
                Some(7),
                "t=1234 keyup node=9 kind=zigbee seq=Some(7) dur=1200",
            ),
            (
                NodeClass::WazaBee,
                Some(7),
                "t=1234 keyup node=9 kind=wazabee seq=Some(7) dur=1200",
            ),
            (
                NodeClass::Jammer,
                None,
                "t=1234 keyup node=9 kind=jammer seq=None dur=1200",
            ),
            (
                NodeClass::Spoofer,
                Some(7),
                "t=1234 keyup node=9 kind=spoofer seq=Some(7) dur=1200",
            ),
            (
                NodeClass::Flooder,
                Some(7),
                "t=1234 keyup node=9 kind=flooder seq=Some(7) dur=1200",
            ),
            (
                NodeClass::Ids,
                None,
                "t=1234 keyup node=9 kind=ids seq=None dur=1200",
            ),
        ];
        for (class, seq, want) in cases {
            let kind = LogKind::Keyup {
                class,
                seq,
                dur_us: 1200,
            };
            assert_eq!(line(9, kind), want);
        }
    }
}
