//! The workspace's one JSON codec: a value tree, a recursive-descent
//! [`parse`], and the [`quote`] string escaper every emitter uses.
//!
//! The workspace has no serde, so each report renders its own JSON with
//! `format!` and quotes strings through [`quote`]; everything read back
//! — the run journal and run cache, flight-recorder event logs, Chrome
//! traces, the `BENCH_sim.json` baseline, the lint's SARIF log — goes
//! through [`parse`].
//!
//! Numbers are kept as their raw source text ([`Json::Raw`]) rather than
//! an `f64`: the caller parses them into the width it needs, so a `u128`
//! MAC count and a `{:?}`-printed float both round-trip bit-exactly.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string literal, unescaped.
    Str(String),
    /// A number, kept as its raw source text.
    Raw(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
    /// An array, in source order.
    Arr(Vec<Json>),
}

impl Json {
    /// The value of `key` if `self` is an object holding it (the first
    /// occurrence wins).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The members of an object, in source order.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(kv) => Some(kv),
            _ => None,
        }
    }

    /// The items of an array, in source order.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The unescaped text of a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The raw source text of a number.
    #[must_use]
    pub fn as_raw(&self) -> Option<&str> {
        match self {
            Json::Raw(s) => Some(s),
            _ => None,
        }
    }

    /// A number that parses as a `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_raw()?.parse().ok()
    }

    /// A number that parses as an `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        self.as_raw()?.parse().ok()
    }

    /// A boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Quotes and escapes `s` as a JSON string literal: `"` and `\` are
/// backslash-escaped, `\n` `\r` `\t` use their short forms, and every
/// other control character becomes `\u00XX`.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one JSON document (objects, arrays, strings, numbers,
/// booleans, null). Errors are short human-readable strings with a byte
/// offset; callers turn them into warnings or report lines.
///
/// # Errors
///
/// Returns a description of the first syntax error: an unexpected byte,
/// an unterminated string, a malformed escape, a trailing comma, or
/// bytes after the document.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null").map(|()| Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at offset {pos}", pos = *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("malformed literal at offset {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("empty number at offset {start}"));
    }
    std::str::from_utf8(&bytes[start..*pos])
        .map(|s| Json::Raw(s.to_string()))
        .map_err(|_| format!("non-UTF-8 number at offset {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    // Caller guarantees bytes[*pos] == b'"'.
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("malformed \\u escape")?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("malformed escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // go. Both are ASCII, so the run ends on a UTF-8
                // boundary of the `&str` the bytes came from.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                let text = std::str::from_utf8(&bytes[*pos..*pos + run])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    // Caller guarantees bytes[*pos] == b'['.
    *pos += 1;
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
            _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    // Caller guarantees bytes[*pos] == b'{'.
    *pos += 1;
    let mut kv = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(kv));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        kv.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(kv));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One character drawn to stress the escaper: control characters,
    /// the two escaped ASCII characters, plain ASCII, and any scalar
    /// value (non-ASCII included; surrogates are skipped).
    fn nasty_char() -> impl Strategy<Value = Option<char>> {
        (0u8..5, any::<u32>()).prop_map(|(class, u)| match class {
            0 => char::from_u32(u % 0x20),
            1 => Some(if u % 2 == 0 { '"' } else { '\\' }),
            2 => char::from_u32(u % 0x80),
            3 => Some(['/', 'é', '€', '😀', '\u{7f}', '\u{2028}'][(u % 6) as usize]),
            _ => char::from_u32(u % 0x11_0000),
        })
    }

    proptest! {
        #[test]
        fn quote_then_parse_round_trips_any_string(
            chars in prop::collection::vec(nasty_char(), 0..48)
        ) {
            let s: String = chars.into_iter().flatten().collect();
            let quoted = quote(&s);
            prop_assert_eq!(parse(&quoted), Ok(Json::Str(s.clone())));
            // Nested in a document too: quoting never leaks a delimiter.
            let doc = format!("{{{}: [{}]}}", quote(&s), quoted);
            let parsed = parse(&doc).unwrap();
            prop_assert_eq!(parsed.get(&s).and_then(|v| v.as_array()), Some(&[Json::Str(s)][..]));
        }
    }

    #[test]
    fn quote_uses_short_escapes_and_lowercase_hex() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("tab\there\r"), "\"tab\\there\\r\"");
        assert_eq!(quote("\u{1}\u{1f}é"), "\"\\u0001\\u001fé\"");
    }

    #[test]
    fn numbers_stay_raw_and_round_trip_bit_exactly() {
        let tiny = format!("{:?}", 1e-7_f64);
        let min_pos = format!("{:?}", f64::MIN_POSITIVE);
        let doc = format!("[{}, -0.0, {tiny}, {min_pos}, 12.5e3]", u128::MAX);
        let v = parse(&doc).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_raw(), Some(u128::MAX.to_string().as_str()));
        assert_eq!(items[0].as_raw().unwrap().parse::<u128>(), Ok(u128::MAX));
        assert_eq!(items[1].as_raw(), Some("-0.0"));
        assert_eq!(items[1].as_f64().map(f64::to_bits), Some((-0.0_f64).to_bits()));
        assert_eq!(items[2].as_raw(), Some(tiny.as_str()));
        assert_eq!(items[2].as_f64().map(f64::to_bits), Some(1e-7_f64.to_bits()));
        assert_eq!(items[3].as_f64().map(f64::to_bits), Some(f64::MIN_POSITIVE.to_bits()));
        assert_eq!(items[4].as_f64(), Some(12_500.0));
        assert_eq!(items[4].as_u64(), None, "not an integer");
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn every_escape_decodes() {
        let v = parse(r#""a\"b\\c\/d\ne\rf\tg\bh\fiéA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\ne\rf\tg\u{8}h\u{c}iéA"));
        assert_eq!(parse(r#""x\u000dy""#).unwrap().as_str(), Some("x\ry"));
        assert_eq!(parse("\"é 😀\"").unwrap().as_str(), Some("é 😀"));
    }

    #[test]
    fn nested_values_and_accessors() {
        let v = parse("{\"a\": [1, 2, [\"x\"], {\"b\": true}], \"e\": [], \"n\": null}").unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].as_raw(), Some("1"));
        assert_eq!(a[2].as_array().unwrap()[0].as_str(), Some("x"));
        assert_eq!(a[3].get("b").and_then(Json::as_bool), Some(true));
        assert!(v.get("e").and_then(Json::as_array).unwrap().is_empty());
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(a[0].get("a"), None, "get on a non-object");
        assert_eq!(v.as_object().map(<[_]>::len), Some(3));
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in [
            "",
            "{\"a\": 1,}",
            "[1, 2,]",
            "[1, 2",
            "[1 2]",
            "[1, 2] trailing",
            "{\"a\": 1} {}",
            "\"unterminated",
            "{\"a\": \"unterminated}",
            r#""\u12""#,
            r#""\uZZZZ""#,
            r#""\u+abc""#,
            r#""\q""#,
            "{a: 1}",
            "{\"a\" 1}",
            "tru",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
