//! JSON reader/writer for the publication substrate.
//!
//! Published run records (paper Figure 3) are serialized as JSON documents;
//! the portal reads them back for search and rendering.

use crate::error::ParseError;
use crate::value::{MapEntries, Value, MAX_DEPTH};

/// Serialize compactly (single line).
pub fn to_json(v: &Value) -> String {
    let mut out = String::new();
    write_json(v, None, 0, &mut out);
    out
}

/// Serialize with two-space indentation.
pub fn to_json_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_json(v, Some(2), 0, &mut out);
    out
}

fn write_json(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_json_string(s, out),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_json(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_json_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_json(val, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document.
pub fn from_json(src: &str) -> Result<Value, ParseError> {
    let mut p = JsonParser { src: src.as_bytes(), pos: 0, line: 1 };
    p.skip_ws();
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(ParseError { line: p.line, msg: "trailing characters after document".into() });
    }
    Ok(v)
}

struct JsonParser<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { line: self.line, msg: msg.into() }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.get(self.pos) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.src.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    /// Parse the value at `pos`, which sits inside `depth` open arrays and
    /// objects.
    fn parse_value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.src.get(self.pos) {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.parse_object(depth + 1),
            Some(b'[') => self.parse_array(depth + 1),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(&b) => Err(self.err(format!("unexpected character '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value, ParseError> {
        if self.src[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{kw}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.src.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.src.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.err("invalid utf-8"))?;
        if is_float {
            text.parse::<f64>()
                .ok()
                .filter(|f| f.is_finite())
                .map(Value::Float)
                .ok_or_else(|| self.err(format!("invalid number '{text}'")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err(format!("invalid integer '{text}'")))
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.src.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.src.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Four hex digits, nothing else: `from_str_radix`
                            // would also take a sign (`\u+041`).
                            let code = hex
                                .iter()
                                .try_fold(0u32, |acc, &b| {
                                    Some(acc << 4 | (b as char).to_digit(16)?)
                                })
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for our records;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume a maximal run of ordinary bytes in one go,
                    // validating UTF-8 once per run. (Validating the whole
                    // remaining input per character made long strings —
                    // e.g. megabyte hex-encoded plate frames — quadratic.)
                    // `"` and `\` are ASCII, so scanning raw bytes for them
                    // never splits a multi-byte scalar.
                    let start = self.pos;
                    while let Some(&b) = self.src.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        if b == b'\n' {
                            self.line += 1;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.src[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value(depth)?);
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut entries = MapEntries::new();
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(entries.into_value());
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value(depth)?;
            if entries.contains(&key) {
                return Err(self.err(format!("duplicate key '{key}'")));
            }
            entries.push(key, value);
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(entries.into_value());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_record() {
        let mut rec = Value::map();
        rec.set("run", 12).set("score", 10.44).set("ok", true).set("note", Value::Null);
        rec.set("color", vec![119i64, 121, 118]);
        let mut nested = Value::map();
        nested.set("step", "cp_wf_mixcolor");
        rec.set("timing", nested);
        for text in [to_json(&rec), to_json_pretty(&rec)] {
            assert_eq!(from_json(&text).unwrap(), rec, "text: {text}");
        }
    }

    #[test]
    fn compact_formatting() {
        let mut v = Value::map();
        v.set("a", 1).set("b", vec!["x", "y"]);
        assert_eq!(to_json(&v), r#"{"a":1,"b":["x","y"]}"#);
    }

    #[test]
    fn pretty_formatting_indents() {
        let mut v = Value::map();
        v.set("a", 1);
        assert_eq!(to_json_pretty(&v), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "quote \" backslash \\ newline \n tab \t unicode ☃";
        let v = Value::Str(s.to_string());
        assert_eq!(from_json(&to_json(&v)).unwrap().as_str(), Some(s));
    }

    #[test]
    fn multibyte_runs_and_mixed_escapes_roundtrip() {
        // Multi-byte scalars adjacent to escapes exercise the run-based
        // string fast path at its boundaries.
        let s = "☃☃\"héllo\\☃\nénd☃";
        let v = Value::Str(s.to_string());
        assert_eq!(from_json(&to_json(&v)).unwrap().as_str(), Some(s));
    }

    #[test]
    fn megabyte_strings_parse_in_linear_time() {
        // Regression: per-character UTF-8 validation of the remaining input
        // made this quadratic (~50 s for the 1.8 MB hex-encoded plate
        // frames the remote backend ships). Linear parsing does a few MB in
        // well under a second even in debug builds.
        let hex: String = "a0f3".repeat(500_000);
        let json = format!("{{\"image_hex\": \"{hex}\"}}");
        let started = std::time::Instant::now();
        let v = from_json(&json).unwrap();
        assert_eq!(v.get("image_hex").and_then(Value::as_str).map(str::len), Some(2_000_000));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "2 MB string took {:?} — string parsing has gone super-linear",
            started.elapsed()
        );
    }

    #[test]
    fn parses_standard_constructs() {
        let v = from_json(r#" { "a" : [ 1 , -2.5e1 , true , null ] , "b" : {} } "#).unwrap();
        let a = v.get("a").unwrap().as_seq().unwrap();
        assert_eq!(a[0], Value::Int(1));
        assert_eq!(a[1], Value::Float(-25.0));
        assert_eq!(a[2], Value::Bool(true));
        assert!(a[3].is_null());
        assert_eq!(v.get("b").unwrap().as_map().unwrap().len(), 0);
    }

    #[test]
    fn unicode_escape() {
        let v = from_json(r#""snow☃""#).unwrap();
        assert_eq!(v.as_str(), Some("snow☃"));
    }

    #[test]
    fn unicode_escape_takes_exactly_four_hex_digits() {
        assert_eq!(from_json(r#""\u0041\u00e9""#).unwrap().as_str(), Some("A\u{e9}"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u00g1""#] {
            assert!(from_json(bad).unwrap_err().msg.contains("invalid \\u escape"), "{bad}");
        }
    }

    #[test]
    fn error_reporting() {
        assert!(from_json("{").is_err());
        assert!(from_json("[1,]").is_err());
        assert!(from_json(r#"{"a":1,"a":2}"#).unwrap_err().msg.contains("duplicate"));
        assert!(from_json("[1] extra").unwrap_err().msg.contains("trailing"));
        let err = from_json("{\n\"a\": @\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn nesting_is_refused_one_level_past_the_limit() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(from_json(&nested(MAX_DEPTH, "[", "]")).is_ok());
        assert!(from_json(&nested(MAX_DEPTH, "{\"a\":", "}")).is_ok());
        for deep in [nested(MAX_DEPTH + 1, "[", "]"), nested(MAX_DEPTH + 1, "{\"a\":", "}")] {
            let err = from_json(&deep).unwrap_err();
            assert_eq!((err.line, err.msg.as_str()), (1, "nesting deeper than 128 levels"));
        }
        // Depth is nesting, not count: many shallow siblings are fine, and
        // the line is where the limit is crossed.
        assert!(from_json(&format!("[{}]", vec!["[[1]]"; 5_000].join(","))).is_ok());
        let err = from_json(&format!("{}\n{}", "[".repeat(100), "[".repeat(200_000))).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn duplicate_keys_are_found_in_maps_of_any_size() {
        for n in [2, 15, 16, 17, 1_000] {
            let body: Vec<String> = (0..n).map(|i| format!("\"k{i}\": {i}")).collect();
            let ok = format!("{{\n{}\n}}", body.join(",\n"));
            assert_eq!(from_json(&ok).unwrap().as_map().map(<[_]>::len), Some(n));
            let dup = format!("{{\n{},\n\"k{}\": 0\n}}", body.join(",\n"), n / 2);
            let err = from_json(&dup).unwrap_err();
            assert_eq!(err.msg, format!("duplicate key 'k{}'", n / 2));
            assert_eq!(err.line, n + 2, "line of the repeated key");
        }
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(to_json(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_json(&Value::Float(f64::INFINITY)), "null");
    }
}
