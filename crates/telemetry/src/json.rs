//! A deliberately tiny JSON writer and reader — just enough for trace
//! files, JSONL metric lines, and read-modify-write of tracked result
//! files (`BENCH_hotpaths.json`), with correct string escaping and
//! round-trippable number formatting, so the crate stays free of heavy
//! serialisation dependencies.

use std::fmt::Write as _;

/// An owned JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Finite floats print via Rust's shortest round-trip `Display`;
    /// NaN/inf degrade to `null` (JSON has no spelling for them).
    Num(f64),
    Int(i64),
    UInt(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` on f64 is shortest-round-trip, but bare
                    // integers like `1` are still valid JSON numbers.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl Json {
    /// Parses one JSON document (with optional surrounding whitespace).
    ///
    /// The reader accepts exactly what [`Json::render`] emits plus
    /// standard JSON it doesn't produce itself (`\uXXXX` escapes with
    /// surrogate pairs, exponent notation). Numbers parse as `UInt` /
    /// `Int` when integral and in range, `Num` otherwise — so a
    /// render→parse round trip reproduces the same variants.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, at: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != bytes.len() {
            return Err(format!("trailing characters at byte {}", p.at));
        }
        Ok(v)
    }

    /// Member lookup on an `Obj` (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest in a parsed document: far above
/// anything the repo writes (`BENCH_hotpaths.json` nests 5 deep, a
/// `mesh_metrics` line 3), far below what the parser's recursion can
/// take on a thread's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Arrays and objects open around `at`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.at) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            // A bound, not the stack, ends a line of a million `[`.
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!("nesting deeper than {MAX_DEPTH}")),
            Some(c @ (b'[' | b'{')) => {
                self.depth += 1;
                let v = if c == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.at)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.at;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.at += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
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
                            self.at += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("unpaired surrogate".into());
                                }
                                let cp =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("lone surrogate")?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the escape
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.at + 4;
        let s = self
            .bytes
            .get(self.at..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.at))?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.at))?;
        self.at = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
        if integral {
            if let Ok(v) = s.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = s.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{s}' at byte {start}"))
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let v = Json::Obj(vec![
            ("name".into(), Json::from("fwd \"x\"\n")),
            ("n".into(), Json::UInt(3)),
            ("t".into(), Json::Num(1.5)),
            ("neg".into(), Json::Int(-2)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            ("xs".into(), Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"fwd \"x\"\n","n":3,"t":1.5,"neg":-2,"ok":true,"none":null,"xs":[1,2]}"#
        );
    }

    #[test]
    fn control_chars_and_nonfinite() {
        assert_eq!(Json::from("\u{1}").render(), "\"\\u0001\"");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        // Integral floats still print as valid JSON numbers.
        assert_eq!(Json::Num(2.0).render(), "2");
    }

    #[test]
    fn parse_round_trips_rendered_values() {
        let v = Json::Obj(vec![
            ("name".into(), Json::from("fwd \"x\"\n\t\\")),
            ("n".into(), Json::UInt(3)),
            ("t".into(), Json::Num(1.5)),
            ("neg".into(), Json::Int(-2)),
            ("big".into(), Json::UInt(u64::MAX)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            ("xs".into(), Json::Arr(vec![Json::UInt(1), Json::Num(0.25)])),
            ("empty_o".into(), Json::Obj(vec![])),
            ("empty_a".into(), Json::Arr(vec![])),
        ]);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back, v);
        // And a second render is byte-identical (stable fixed point).
        assert_eq!(back.render(), v.render());
    }

    #[test]
    fn parse_accepts_standard_json_we_do_not_emit() {
        let v = Json::parse(
            " { \"a\" : [ 1 , -2.5e2 , \"\\u00e9\\uD83D\\uDE00\" ] , \"b\" : { } } ",
        )
        .unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::UInt(1),
                Json::Num(-250.0),
                Json::Str("é😀".into())
            ]))
        );
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1 2", "\"unterminated",
            "{\"a\":1}x", "\"\\u12\"", "\"\\uD800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_stack_deep() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err().contains("nesting deeper"));
        let object = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&object).unwrap_err().contains("nesting deeper"));
        // Once overflowed the stack and aborted the process.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    }
}
