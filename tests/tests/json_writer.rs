//! The one JSON writer (`wazabee_telemetry::json`) against the integration
//! suite's independent parser: arbitrary strings come back exactly, finite
//! floats bit-exactly, non-finite floats as `null`, and the commas the
//! writer places always make a document the parser accepts.

use proptest::prelude::*;
use wazabee_integration::{parse_json, Json};
use wazabee_telemetry::json::{Fixed, Writer};

/// Floats the uniform bit draw almost never hits.
const SPECIAL_F64: [f64; 12] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    5e-324,
    -2.225_073_858_507_201e-308,
    f64::MAX,
    f64::MIN,
    f64::EPSILON,
    1e21,
];

/// One float per draw: a special value for small selectors, otherwise a
/// uniform bit pattern (every exponent, sign and NaN payload is reachable).
fn float(sel: u8, bits: u64) -> f64 {
    SPECIAL_F64
        .get(usize::from(sel))
        .copied()
        .unwrap_or(f64::from_bits(bits))
}

/// One char per draw, weighted toward what escaping must get right:
/// quotes, backslashes, every C0 control, DEL and U+2028, then BMP and
/// non-BMP scalars.
fn char_of(draw: u32) -> char {
    let payload = draw >> 3;
    match draw & 7 {
        0 => '"',
        1 => '\\',
        2 => char::from_u32(payload % 0x20).unwrap(),
        3 => char::from_u32(0x20 + payload % 0x5f).unwrap(),
        4 => ['\u{7f}', '\u{2028}', '/', 'é'][(payload % 4) as usize],
        5 | 6 => char::from_u32(0x80 + payload % 0xd780).unwrap(),
        _ => char::from_u32(0x1_0000 + payload % 0x10_0000).unwrap(),
    }
}

fn string_of(draws: &[u32]) -> String {
    draws.iter().map(|&d| char_of(d)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip_exactly(
        key in proptest::collection::vec(any::<u32>(), 0..12),
        value in proptest::collection::vec(any::<u32>(), 0..48),
    ) {
        let (key, value) = (string_of(&key), string_of(&value));
        let mut out = String::new();
        Writer::new(&mut out)
            .begin_object()
            .field(&key, value.as_str())
            .key("list")
            .begin_array()
            .value(value.as_str())
            .value(key.as_str())
            .end_array()
            .end_object();
        let doc = parse_json(&out).unwrap_or_else(|e| panic!("{e}: {out:?}"));
        prop_assert_eq!(doc.get(&key).and_then(Json::as_str), Some(value.as_str()));
        let list = doc.get("list").and_then(Json::as_array).unwrap();
        prop_assert_eq!(list[0].as_str(), Some(value.as_str()));
        prop_assert_eq!(list[1].as_str(), Some(key.as_str()));
    }

    #[test]
    fn floats_round_trip_bit_exactly_or_as_null(
        sels in proptest::array::uniform8(0u8..24),
        bits in proptest::array::uniform8(any::<u64>()),
    ) {
        let xs: Vec<f64> = sels.iter().zip(&bits).map(|(&s, &b)| float(s, b)).collect();
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_array();
        for &x in &xs {
            w.value(x).value(Some(x)).begin_object().field("x", x).end_object();
        }
        w.end_array();
        let doc = parse_json(&out).unwrap_or_else(|e| panic!("{e}: {out}"));
        let items = doc.as_array().unwrap();
        prop_assert_eq!(items.len(), 3 * xs.len());
        for (k, &x) in xs.iter().enumerate() {
            for got in [&items[3 * k], &items[3 * k + 1], items[3 * k + 2].get("x").unwrap()] {
                if x.is_finite() {
                    let v = got.as_f64().unwrap_or_else(|| panic!("{x:e} -> {got:?}"));
                    prop_assert_eq!(v.to_bits(), x.to_bits(), "{:e} rendered in {}", x, out);
                } else {
                    prop_assert_eq!(got, &Json::Null);
                }
            }
        }
    }

    #[test]
    fn fixed_decimals_match_format_and_parse(
        sel in 0u8..24,
        bits in any::<u64>(),
        decimals in 0usize..10,
    ) {
        let x = float(sel, bits);
        let mut out = String::new();
        Writer::new(&mut out).value(Fixed(x, decimals));
        if x.is_finite() {
            prop_assert_eq!(&out, &format!("{x:.decimals$}"));
            prop_assert!(matches!(parse_json(&out), Ok(Json::Num(_))), "{}", out);
        } else {
            prop_assert_eq!(out.as_str(), "null");
        }
    }
}
