//! The one JSON writer: compact, std-only, no options.
//!
//! Every JSON document and JSON Lines record the workspace writes goes
//! through [`Writer`], which owns exactly three things: the commas between
//! members and elements; string escaping (`\"`, `\\`, `\n`, `\r`, `\t`,
//! other control characters as `\u00XX`, everything else as UTF-8); and
//! non-finite floats, which render as `null`. Floats print with Rust's
//! shortest round-trip `Display` (never an exponent), or with fixed decimals
//! through [`Fixed`], so `{:.6}`-style fields stay byte-identical.
//!
//! ```
//! use wazabee_telemetry::json::{Fixed, Writer};
//!
//! let mut out = String::new();
//! Writer::new(&mut out)
//!     .begin_object()
//!     .field("name", "a\"b")
//!     .field("ratio", Fixed(0.5, 3))
//!     .field("mean", f64::NAN)
//!     .field("p50", None::<f64>)
//!     .key("buckets")
//!     .begin_array()
//!     .value(1u64)
//!     .value(2u64)
//!     .end_array()
//!     .end_object();
//! assert_eq!(
//!     out,
//!     r#"{"name":"a\"b","ratio":0.500,"mean":null,"p50":null,"buckets":[1,2]}"#
//! );
//! ```

use std::fmt::Write as _;

/// Appends compact JSON to a caller-owned `String` (clear and reuse one
/// buffer across records). Calls chain; nesting is not checked.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut String,
    /// The next member or element needs a separating comma.
    comma: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    #[must_use]
    pub fn new(out: &'a mut String) -> Self {
        Writer { out, comma: false }
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Opens an object (as a value: after a key, in an array, or at the top).
    pub fn begin_object(&mut self) -> &mut Self {
        self.separate();
        self.out.push('{');
        self.comma = false;
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Opens an array (as a value).
    pub fn begin_array(&mut self) -> &mut Self {
        self.separate();
        self.out.push('[');
        self.comma = false;
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        escape_into(self.out, key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes one scalar value (an array element, or a member after [`key`]).
    ///
    /// [`key`]: Writer::key
    pub fn value(&mut self, v: impl Value) -> &mut Self {
        self.separate();
        v.write_to(self.out);
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value(None::<u64>)
    }

    /// Writes one object member: `key` then `v`.
    pub fn field(&mut self, key: &str, v: impl Value) -> &mut Self {
        self.key(key).value(v)
    }
}

/// A scalar the [`Writer`] can render: integers, `bool`, `f64` (non-finite
/// → `null`), strings (escaped), [`Fixed`], and `Option`s of these
/// (`None` → `null`).
pub trait Value {
    /// Appends the JSON rendering to `out`.
    fn write_to(self, out: &mut String);
}

macro_rules! display_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            #[inline]
            fn write_to(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_value!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

impl Value for f64 {
    fn write_to(self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl Value for &str {
    fn write_to(self, out: &mut String) {
        escape_into(out, self);
    }
}

impl Value for &String {
    fn write_to(self, out: &mut String) {
        escape_into(out, self);
    }
}

impl<T: Value> Value for Option<T> {
    fn write_to(self, out: &mut String) {
        match self {
            Some(v) => v.write_to(out),
            None => out.push_str("null"),
        }
    }
}

/// An `f64` rendered with a fixed number of decimals (`Fixed(v, 6)` is
/// `{v:.6}`); non-finite values render as `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write_to(self, out: &mut String) {
        let Fixed(v, decimals) = self;
        if v.is_finite() {
            let _ = write!(out, "{v:.decimals$}");
        } else {
            out.push_str("null");
        }
    }
}

/// Appends `s` as a quoted, escaped JSON string.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    // The escaped bytes are all ASCII, so every split point is a char
    // boundary and multi-byte sequences pass through untouched.
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commas_follow_nesting() {
        let mut doc = String::new();
        let mut w = Writer::new(&mut doc);
        w.begin_object()
            .key("a")
            .begin_array()
            .begin_object()
            .end_object();
        w.begin_array().end_array().value(1u8).end_array();
        w.key("b").begin_object().field("c", true).field("d", -2i64);
        w.end_object().field("e", "x").end_object();
        assert_eq!(doc, r#"{"a":[{},[],1],"b":{"c":true,"d":-2},"e":"x"}"#);
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let mut doc = String::new();
        let mut w = Writer::new(&mut doc);
        w.begin_object().field("k\"", "a\"b\\c\nd\r\t\u{1}\u{1f}é𝄞");
        w.end_object();
        assert_eq!(doc, "{\"k\\\"\":\"a\\\"b\\\\c\\nd\\r\\t\\u0001\\u001fé𝄞\"}");
    }

    #[test]
    fn floats_are_shortest_or_fixed_and_never_non_finite() {
        let mut doc = String::new();
        let mut w = Writer::new(&mut doc);
        for v in [0.1, -0.0, 1e21, f64::INFINITY, f64::NAN] {
            w.value(v);
        }
        w.value(Fixed(2.0, 6)).value(Fixed(f64::NEG_INFINITY, 3));
        w.value(Some(Fixed(0.12345, 3))).null();
        assert_eq!(
            doc,
            "0.1,-0,1000000000000000000000,null,null,2.000000,null,0.123,null"
        );
    }
}
