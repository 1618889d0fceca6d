//! Dependency-free JSON: a small recursive-descent parser and a
//! deterministic serializer.
//!
//! The workspace builds offline (no registry crates), so the daemon
//! carries its own JSON layer. Two deliberate properties:
//!
//! - **Object key order is preserved**, both parsing and serializing, so
//!   responses are byte-stable.
//! - [`Json::Raw`] splices a pre-serialized document verbatim. The
//!   drivers in `uhacc::driver` already render stable JSON bodies
//!   (results, profiles, diagnostics); re-parsing and re-printing them
//!   would risk byte drift, so the service embeds them untouched.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers parse as f64 (JSON has one number type); integral
    /// values serialize without a decimal point.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order preserved.
    Obj(Vec<(String, Json)>),
    /// A pre-serialized JSON document, spliced verbatim on output.
    /// Never produced by the parser.
    Raw(String),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Render this value's source-level literal form — what a user would
    /// have typed after the matching CLI flag, which is how every request
    /// field reaches the one option decoder
    /// (`uhacc::driver::Options::set`). An array of scalars is its
    /// comma-joined items: `[192,8,128]` is `--dims 192,8,128`.
    pub fn literal(&self) -> String {
        match self {
            Json::Str(s) => s.clone(),
            Json::Arr(items)
                if !items
                    .iter()
                    .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_))) =>
            {
                let items: Vec<String> = items.iter().map(Json::literal).collect();
                items.join(",")
            }
            other => other.to_string(),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
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
            Json::Raw(doc) => out.push_str(doc),
        }
    }
}

/// Serialization (deterministic; preserves object key order). `Display`
/// also powers `.to_string()`.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&uhobs::json_escape(s));
    out.push('"');
}

/// Convenience: build an object literal.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Parse a complete JSON document. Trailing garbage is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| {
            c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-'
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
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
                            // Surrogate pairs: accept and combine; lone
                            // surrogates map to the replacement char.
                            if (0xD800..0xDC00).contains(&code) {
                                let rest = &self.bytes[self.pos + 5..];
                                if rest.starts_with(b"\\u") && rest.len() >= 6 {
                                    let lo = u32::from_str_radix(
                                        std::str::from_utf8(&rest[2..6])
                                            .map_err(|_| "bad \\u escape")?,
                                        16,
                                    )
                                    .map_err(|_| "bad \\u escape")?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        let c = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                        out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                                        self.pos += 10;
                                        self.pos += 1; // the closing step below
                                        continue;
                                    }
                                }
                                out.push('\u{FFFD}');
                            } else {
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            }
                            self.pos += 4;
                        }
                        _ => return Err("invalid escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err("raw control character in string".into());
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let doc = r#"{"a":1,"b":[true,null,"x\ny"],"c":{"d":-2.5}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.to_string(), doc);
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-2.5));
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""Aé \" \\ €""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé \" \\ €"));
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn raw_splices_verbatim() {
        let v = obj(vec![("results", Json::Raw("{\"s\":500.0}".into()))]);
        assert_eq!(v.to_string(), "{\"results\":{\"s\":500.0}}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1}x").is_err());
        assert!(parse("nulll").is_err());
    }

    #[test]
    fn integral_numbers_have_no_point() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.5).to_string(), "3.5");
    }

    #[test]
    fn literal_matches_source_form() {
        assert_eq!(parse("12").unwrap().literal(), "12");
        assert_eq!(parse("-3.5").unwrap().literal(), "-3.5");
        assert_eq!(parse("\"abc\"").unwrap().literal(), "abc");
        assert_eq!(parse("true").unwrap().literal(), "true");
        assert_eq!(parse("[192,\"8\",128]").unwrap().literal(), "192,8,128");
        assert_eq!(parse("[]").unwrap().literal(), "");
        assert_eq!(parse("[[1],2]").unwrap().literal(), "[[1],2]");
    }
}
