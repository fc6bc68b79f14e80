//! Shared helpers for the cross-crate integration tests.
//!
//! Every JSON artifact in this workspace is written by the one compact
//! writer, `wazabee_telemetry::json`. This module supplies an independent
//! consumer side: a small recursive-descent JSON parser the tests use to
//! round-trip snapshot, report, time-series and writer output. It accepts
//! standard JSON (RFC 8259) minus escapes beyond `\" \\ / \n \r \t \uXXXX`.
//! [`has_avx2`] gates the AVX2 arms of the kernel parity tests.

/// Whether the AVX2 arms of the kernel parity tests run. On a host without
/// AVX2 it says once, on stderr past the test harness's capture, that they
/// are skipped.
pub fn has_avx2() -> bool {
    let avx2 = wazabee_dsp::simd::avx2_detected();
    if !avx2 {
        static NOTICE: std::sync::Once = std::sync::Once::new();
        NOTICE.call_once(|| {
            use std::io::Write;
            let _ = writeln!(
                std::io::stderr(),
                "this host has no AVX2: skipping the AVX2 variant arms of the parity tests"
            );
        });
    }
    avx2
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is preserved as written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object members, in source order; `None` for non-objects.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses one complete JSON document, rejecting trailing garbage.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {pos}, found {:?}",
            want as char,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {pos}",
            other.map(|&b| b as char)
        )),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos} (wanted {word})"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 passes through unchanged.
                let len = match b {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = bytes
                    .get(*pos..*pos + len)
                    .ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json("true").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(
            parse_json(r#""a\"b\n""#).unwrap(),
            Json::Str("a\"b\n".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, {"b": "x"}, []], "c": {}}"#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert_eq!(v.get("c").unwrap().members().unwrap().len(), 0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn preserves_key_order() {
        let v = parse_json(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }
}
