//! A minimal JSON layer for job specs: parse, navigate, and re-emit in a
//! *canonical* form (sorted keys, no whitespace, shortest round-trip
//! number rendering). The canonical bytes are what the content-addressed
//! result cache hashes, so two texts describing the same spec — different
//! key order, different number spelling, explicit defaults — must
//! canonicalize identically. The workspace builds offline with no serde;
//! this is a deliberate hand-rolled subset (UTF-8 text, `\uXXXX` escapes,
//! finite numbers) sufficient for job configs.

use std::collections::BTreeMap;

/// One JSON value. Objects use a `BTreeMap`, so key order is normalized at
/// parse time and canonical emission is just in-order traversal.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Canonical encoding: object keys sorted (the map is sorted), no
    /// whitespace, numbers in Rust's shortest round-trip form, integral
    /// numbers without a fractional part.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    // -- typed accessors (spec parsing) ------------------------------------

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u32::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && v.abs() < 2f64.powi(53) => Some(*v as i64),
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
}

fn write_num(v: f64, out: &mut String) {
    use std::fmt::Write;
    if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
        // Canonical integral form: "4" whether the input said 4, 4.0, or 4e0.
        write!(out, "{}", v as i64).unwrap();
    } else {
        // `{}` on f64 is the shortest representation that round-trips.
        write!(out, "{v}").unwrap();
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest container nesting [`Json::parse`] accepts. The parser recurses
/// once per level, and specs arrive straight off a socket on a
/// default-stack connection thread, so depth must not be the sender's to
/// choose. Job specs and the benchmark's reports nest fewer than 10 deep.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(format!("duplicate key \"{key}\""));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("invalid codepoint \\u{code:04x}"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("bad escape {:?} at byte {}", other, self.pos))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let v: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite number '{text}'"));
        }
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_canonicalizes_nested_values() {
        let j =
            Json::parse(r#" { "b" : [1, 2.5, -3e2, true, null], "a": {"z": "s\n", "y": 4.0} } "#)
                .unwrap();
        assert_eq!(
            j.canonical(),
            r#"{"a":{"y":4,"z":"s\n"},"b":[1,2.5,-300,true,null]}"#
        );
    }

    #[test]
    fn key_order_and_number_spelling_do_not_matter() {
        let a = Json::parse(r#"{"x": 1.0, "y": 2}"#).unwrap();
        let b = Json::parse(r#"{"y": 2.000, "x": 1}"#).unwrap();
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn canonical_text_reparses_to_the_same_value() {
        let j = Json::parse(r#"{"k": [0.1, 1e-17, 9007199254740993.0], "s": "a\"b\\c"}"#).unwrap();
        let again = Json::parse(&j.canonical()).unwrap();
        assert_eq!(j.canonical(), again.canonical());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "\"abc",
            "{\"a\":}",
            "12 34",
            "{\"a\":1,\"a\":2}",
            "nul",
            "{\"a\" 1}",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // 100 KB of open brackets: unbounded recursion overflows the stack
        // long before the input ends. On a spawned thread, so the parser
        // gets the default stack a `serve-conn` thread gives it, whatever
        // the test harness uses.
        std::thread::spawn(|| {
            let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
            for bad in [
                "[".repeat(100_000),
                "{\"a\":".repeat(100_000),
                nested(MAX_DEPTH + 1),
            ] {
                assert!(
                    Json::parse(&bad).is_err(),
                    "accepted {} bytes of {:?}",
                    bad.len(),
                    &bad[..5]
                );
            }
            assert!(
                Json::parse(&nested(MAX_DEPTH)).is_ok(),
                "rejected {MAX_DEPTH} levels"
            );
        })
        .join()
        .expect("parser thread panicked");
    }

    #[test]
    fn control_characters_escape_canonically() {
        let j = Json::Str("a\u{1}b".into());
        assert_eq!(j.canonical(), "\"a\\u0001b\"");
        assert_eq!(Json::parse(&j.canonical()).unwrap(), j);
    }
}
