//! The serve-plane wire protocol: length-prefixed sample records.
//!
//! A client session is a byte stream of records, each
//! `[tag u8][len u32 LE][payload len bytes]`:
//!
//! | tag    | record                  | payload                              |
//! |--------|-------------------------|--------------------------------------|
//! | `0x01` | [`Record::Hello`]       | UTF-8 session name                   |
//! | `0x02` | cf32 samples            | interleaved `f32` LE I/Q pairs       |
//! | `0x03` | u8 samples              | offset-128 interleaved I/Q bytes     |
//! | `0x04` | [`Record::End`]         | empty                                |
//!
//! `Hello` is optional but, when present, must arrive before the first
//! sample record — it names the session's artifact directory and telemetry
//! label. `End` marks a clean end of stream; a bare EOF at a record boundary
//! is treated the same way, so `nc < capture.bin` works without a trailer.
//! Sample payloads map onto [`SampleFormat::Cf32`] / [`SampleFormat::U8Offset128`]
//! and must hold whole samples (cf32: multiple of 8 bytes; u8: multiple of 2).
//!
//! The same [`read_record`]/`write_*` helpers are shared by the server's
//! ingest threads, the `serve_throughput` bench clients and the integration
//! tests, so there is exactly one encoder and one decoder of this framing in
//! the tree.

use std::io::{self, Read, Write};

use wazabee_dsp::io::SampleFormat;

/// Record tag: UTF-8 session name, before any samples.
pub const TAG_HELLO: u8 = 0x01;
/// Record tag: interleaved little-endian `f32` I/Q samples.
pub const TAG_SAMPLES_CF32: u8 = 0x02;
/// Record tag: offset-128 interleaved `u8` I/Q samples (RTL-SDR style).
pub const TAG_SAMPLES_U8: u8 = 0x03;
/// Record tag: clean end of session, no payload.
pub const TAG_END: u8 = 0x04;

/// Hard upper bound on a record payload (4 MiB) — a corrupt or hostile
/// length prefix must not make the server allocate unbounded memory.
pub const MAX_RECORD_LEN: usize = 4 << 20;

/// One parsed protocol record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Session name announcement (must precede any samples to take effect).
    Hello(String),
    /// A batch of IQ samples in the given wire format, still encoded.
    Samples(SampleFormat, Vec<u8>),
    /// Clean end of the session.
    End,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads one record off `r`.
///
/// Returns `Ok(None)` on a clean EOF *at a record boundary* (treated by the
/// server like [`Record::End`]). EOF inside a record, an unknown tag, an
/// oversized length prefix, a ragged sample payload or a non-UTF-8 hello all
/// surface as `InvalidData`/`UnexpectedEof` errors. Everything the header
/// alone decides (tag, length cap, whole samples) is checked before the
/// payload is allocated or read.
pub fn read_record(r: &mut impl Read) -> io::Result<Option<Record>> {
    let mut tag = [0u8; 1];
    // EOF before the tag byte is a clean end of stream.
    loop {
        match r.read(&mut tag) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let format = match tag[0] {
        TAG_HELLO | TAG_END => None,
        TAG_SAMPLES_CF32 => Some(SampleFormat::Cf32),
        TAG_SAMPLES_U8 => Some(SampleFormat::U8Offset128),
        other => return Err(bad(format!("unknown record tag {other:#04x}"))),
    };
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4) as usize;
    if len > MAX_RECORD_LEN {
        return Err(bad(format!(
            "record length {len} exceeds the {MAX_RECORD_LEN}-byte cap"
        )));
    }
    if let Some(f) = format {
        if !len.is_multiple_of(f.bytes_per_sample()) {
            return Err(bad(format!(
                "{} payload of {len} bytes is ragged",
                f.name()
            )));
        }
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(match format {
        Some(f) => Record::Samples(f, payload),
        None if tag[0] == TAG_HELLO => Record::Hello(
            String::from_utf8(payload).map_err(|_| bad("hello payload is not UTF-8".into()))?,
        ),
        None => Record::End,
    }))
}

fn write_framed(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_RECORD_LEN);
    w.write_all(&[tag])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Writes a [`Record::Hello`] naming the session.
pub fn write_hello(w: &mut impl Write, name: &str) -> io::Result<()> {
    write_framed(w, TAG_HELLO, name.as_bytes())
}

/// Writes one sample record: `payload` must already be encoded in `format`
/// (see [`SampleFormat::encode`]) and hold whole samples.
pub fn write_samples(w: &mut impl Write, format: SampleFormat, payload: &[u8]) -> io::Result<()> {
    debug_assert_eq!(payload.len() % format.bytes_per_sample(), 0);
    let tag = match format {
        SampleFormat::Cf32 => TAG_SAMPLES_CF32,
        SampleFormat::U8Offset128 => TAG_SAMPLES_U8,
    };
    write_framed(w, tag, payload)
}

/// Writes the clean end-of-session trailer.
pub fn write_end(w: &mut impl Write) -> io::Result<()> {
    write_framed(w, TAG_END, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_every_record_kind() {
        let mut buf = Vec::new();
        write_hello(&mut buf, "bench-07").unwrap();
        write_samples(&mut buf, SampleFormat::Cf32, &[0u8; 16]).unwrap();
        write_samples(&mut buf, SampleFormat::U8Offset128, &[128u8; 6]).unwrap();
        write_end(&mut buf).unwrap();

        let mut r = Cursor::new(buf);
        assert_eq!(
            read_record(&mut r).unwrap(),
            Some(Record::Hello("bench-07".into()))
        );
        assert_eq!(
            read_record(&mut r).unwrap(),
            Some(Record::Samples(SampleFormat::Cf32, vec![0u8; 16]))
        );
        assert_eq!(
            read_record(&mut r).unwrap(),
            Some(Record::Samples(SampleFormat::U8Offset128, vec![128u8; 6]))
        );
        assert_eq!(read_record(&mut r).unwrap(), Some(Record::End));
        // Clean EOF at a record boundary.
        assert_eq!(read_record(&mut r).unwrap(), None);
    }

    #[test]
    fn rejects_ragged_oversized_and_unknown() {
        // cf32 payload not a multiple of 8.
        let mut buf = Vec::new();
        write_framed(&mut buf, TAG_SAMPLES_CF32, &[0u8; 7]).unwrap();
        assert!(read_record(&mut Cursor::new(buf)).is_err());

        // u8 payload not a multiple of 2.
        let mut buf = Vec::new();
        write_framed(&mut buf, TAG_SAMPLES_U8, &[0u8; 3]).unwrap();
        assert!(read_record(&mut Cursor::new(buf)).is_err());

        // Unknown tag.
        let mut buf = Vec::new();
        write_framed(&mut buf, 0x7f, &[]).unwrap();
        assert!(read_record(&mut Cursor::new(buf)).is_err());

        // Unknown tag under a maximal length prefix with no payload behind
        // it: the tag is rejected as invalid before any payload is allocated
        // or awaited, not reported as a truncated read.
        let mut buf = vec![0x7f];
        buf.extend_from_slice(&(MAX_RECORD_LEN as u32).to_le_bytes());
        let err = read_record(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Hostile length prefix: rejected before any allocation of that size.
        let mut buf = vec![TAG_SAMPLES_CF32];
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_record(&mut Cursor::new(buf)).is_err());

        // EOF mid-record is an error, not a clean end.
        let mut buf = Vec::new();
        write_framed(&mut buf, TAG_SAMPLES_CF32, &[0u8; 16]).unwrap();
        buf.truncate(9);
        assert!(read_record(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn samples_round_trip_through_sample_format() {
        use wazabee_dsp::IqBuf;
        let mut iq = IqBuf::new();
        for k in 0..32 {
            iq.push((k as f32) / 64.0, -(k as f32) / 64.0);
        }
        let payload = SampleFormat::Cf32.encode(iq.as_slice());
        let mut buf = Vec::new();
        write_samples(&mut buf, SampleFormat::Cf32, &payload).unwrap();
        let Some(Record::Samples(fmt, got)) = read_record(&mut Cursor::new(buf)).unwrap() else {
            panic!("expected a sample record");
        };
        let mut back = IqBuf::new();
        assert_eq!(fmt.decode(&got, &mut back).unwrap(), 32);
        assert_eq!(back.i(), iq.i());
        assert_eq!(back.q(), iq.q());
    }
}
