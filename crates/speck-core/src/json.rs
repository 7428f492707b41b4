//! The crate's one JSON codec: a value tree, a dependency-free
//! recursive-descent parser, and the string/number writers every export
//! shares (metrics snapshots, Chrome traces, decision audits).
//!
//! Numbers keep their source text, so integers above 2^53 (`u64`
//! counters) read back exactly through [`JsonValue::as_u64`] while floats
//! parse on demand through [`JsonValue::as_f64`]. Strings are copied
//! verbatim between escapes, so any UTF-8 name survives a round trip.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its source text (validated as an `f64` literal).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as u64, if an integer literal in range (exact at any
    /// magnitude, unlike a trip through f64).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as usize, if an integer literal in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value's `(key, value)` fields, if an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parses one JSON document (any value shape).
pub fn parse_json_value(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value()?;
    if p.peek().is_some() {
        return p.err("trailing data");
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("json: {what} at byte {}", self.pos))
    }

    /// Skips whitespace and returns the next byte.
    fn peek(&mut self) -> Option<u8> {
        let b = self.text.as_bytes();
        while b.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
        b.get(self.pos).copied()
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        if self.peek() == Some(ch) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", ch as char))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let b = self.text.as_bytes();
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or escape verbatim: both
            // are ASCII, so the run is whole UTF-8.
            let run = self.pos;
            while b.get(self.pos).is_some_and(|&c| c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            s.push_str(&self.text[run..self.pos]);
            match b.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(_) => self.pos += 1,
            }
            let Some(&e) = b.get(self.pos) else {
                return self.err("dangling escape");
            };
            self.pos += 1;
            match e {
                b'"' | b'\\' | b'/' => s.push(e as char),
                b'n' => s.push('\n'),
                b't' => s.push('\t'),
                b'r' => s.push('\r'),
                b'u' => {
                    let code = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32);
                    let Some(c) = code else {
                        return self.err("bad \\u escape");
                    };
                    s.push(c);
                    self.pos += 4;
                }
                _ => return self.err("unknown escape"),
            }
        }
    }

    /// Parses comma-separated items up to `close` (the opening bracket
    /// already consumed).
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return self.err(&format!("expected ',' or '{}'", close as char)),
            }
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'{') => {
                self.pos += 1;
                let fields = self.items(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })?;
                Ok(JsonValue::Obj(fields))
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(JsonValue::Arr(self.items(b']', Self::value)?))
            }
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' || c == b'+' => {
                let start = self.pos;
                let b = self.text.as_bytes();
                while b.get(self.pos).is_some_and(|c| {
                    c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let t = &self.text[start..self.pos];
                t.parse::<f64>()
                    .map_err(|e| format!("json: bad number '{t}' at byte {start}: {e}"))?;
                Ok(JsonValue::Num(t.to_string()))
            }
            _ => self.err("expected a value"),
        }
    }
}

/// Appends `s` as a JSON string literal.
pub(crate) fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an f64 as a JSON number: integral values below 9e15 as
/// integers, everything else in Rust's shortest-roundtrip `Display` —
/// deterministic, and re-parsing recovers the exact value.
pub(crate) fn push_num(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["{", "[1, 2,]", "{\"a\": }", "12 34", "\"open", "tru", "1-"] {
            assert!(parse_json_value(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_accepts_standard_json_shapes() {
        let v = parse_json_value(
            "{\"a\": [1, -2.5, 3e2], \"b\": {\"c\": null, \"d\": true}, \"e\": \"x\\ny\\u00e9\"}",
        )
        .unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(300.0));
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\nyé"));
    }

    #[test]
    fn integers_above_2_pow_53_survive() {
        let big = (1u64 << 60) + 1;
        let v = parse_json_value(&format!("[{big}, {}]", u64::MAX)).unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(big));
        assert_eq!(a[1].as_u64(), Some(u64::MAX));
    }
}
