//! A YAML-subset parser and writer.
//!
//! The WEI platform describes workcells and workflows "using a declarative
//! YAML notation" (paper §2.2). This module implements the subset those
//! documents need — block maps and sequences by indentation, inline (flow)
//! sequences and maps on a single line, quoted and plain scalars, comments —
//! without bringing in a serde format crate (the declarative layer is itself
//! a substrate of this reproduction).
//!
//! Supported:
//! * block mappings `key: value` / `key:` + indented block;
//! * block sequences `- item` (including inline map start after the dash);
//! * flow collections `[1, 2, 3]` and `{a: 1, b: 2}` on one line;
//! * plain, single-quoted and double-quoted scalars (with `\n`, `\t`, `\\`,
//!   `\"` escapes in double quotes);
//! * `# comments`, blank lines, a leading `---` document marker;
//! * scalars typed as null (`null`/`~`/empty), bool, int, float, string.
//!
//! Not supported (rejected with a clear error where detectable): tabs in
//! indentation, anchors/aliases, multi-document streams, block scalars
//! (`|`/`>`), and complex (non-string) keys.

use crate::error::ParseError;
use crate::value::{MapEntries, Value, MAX_DEPTH};

/// Parse a YAML document into a [`Value`].
pub fn from_yaml(src: &str) -> Result<Value, ParseError> {
    let lines = logical_lines(src)?;
    if lines.is_empty() {
        return Ok(Value::Null);
    }
    // A one-line document that is neither a sequence item nor a map entry is
    // a bare scalar (e.g. a quoted string or a number).
    if lines.len() == 1 {
        let l = &lines[0];
        let is_seq = l.text == "-" || l.text.starts_with("- ");
        if !is_seq && !is_map_entry(&l.text) {
            return parse_scalar(&l.text, l.no, 0);
        }
    }
    let mut p = Parser { lines, pos: 0 };
    let v = p.parse_block(p.lines[0].indent, 0)?;
    if p.pos < p.lines.len() {
        let l = &p.lines[p.pos];
        return Err(ParseError::new(
            l.no,
            format!("unexpected content '{}' after document", l.text),
        ));
    }
    Ok(v)
}

/// Render a [`Value`] as a YAML document (block style, two-space indent).
pub fn to_yaml(v: &Value) -> String {
    let mut out = String::new();
    match v {
        Value::Map(_) | Value::Seq(_) => write_block(v, 0, &mut out),
        scalar => {
            out.push_str(&scalar_to_yaml(scalar));
            out.push('\n');
        }
    }
    out
}

#[derive(Debug)]
struct Line {
    indent: usize,
    text: String,
    no: usize,
}

/// Strip comments/blanks and compute indents.
fn logical_lines(src: &str) -> Result<Vec<Line>, ParseError> {
    let mut out = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let no = i + 1;
        let line = raw.strip_suffix('\r').unwrap_or(raw);
        if line.trim() == "---" && out.is_empty() {
            continue; // document start marker
        }
        let mut indent = 0;
        for ch in line.chars() {
            match ch {
                ' ' => indent += 1,
                '\t' => return Err(ParseError::new(no, "tabs are not allowed in indentation")),
                _ => break,
            }
        }
        let body = strip_comment(&line[indent..]);
        let body = body.trim_end();
        if body.is_empty() {
            continue;
        }
        out.push(Line { indent, text: body.to_string(), no });
    }
    Ok(out)
}

/// Remove a trailing comment, respecting quotes. A `#` starts a comment only
/// at the start or after whitespace.
fn strip_comment(s: &str) -> &str {
    let bytes = s.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_double => escaped = true,
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'#' if !in_single
                && !in_double
                && (i == 0 || bytes[i - 1] == b' ' || bytes[i - 1] == b'\t') =>
            {
                return &s[..i];
            }
            _ => {}
        }
    }
    s
}

struct Parser {
    lines: Vec<Line>,
    pos: usize,
}

/// The error for a collection opened inside [`MAX_DEPTH`] open ones.
fn too_deep(no: usize) -> ParseError {
    ParseError::new(no, format!("nesting deeper than {MAX_DEPTH} levels"))
}

impl Parser {
    /// Parse the block starting at `self.pos`, whose items sit at `indent`,
    /// inside `depth` open collections.
    fn parse_block(&mut self, indent: usize, depth: usize) -> Result<Value, ParseError> {
        let line = &self.lines[self.pos];
        if depth == MAX_DEPTH {
            return Err(too_deep(line.no));
        }
        if line.text == "-" || line.text.starts_with("- ") {
            self.parse_seq(indent, depth + 1)
        } else {
            self.parse_map(indent, depth + 1)
        }
    }

    /// Parse a block sequence whose items sit inside `depth` open
    /// collections (the sequence included).
    fn parse_seq(&mut self, indent: usize, depth: usize) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        while self.pos < self.lines.len() {
            let line = &self.lines[self.pos];
            if line.indent != indent {
                if line.indent > indent {
                    return Err(ParseError::new(
                        line.no,
                        "unexpected deeper indentation in sequence",
                    ));
                }
                break;
            }
            if !(line.text == "-" || line.text.starts_with("- ")) {
                break;
            }
            let no = line.no;
            let rest = if line.text == "-" { "" } else { line.text[2..].trim_start() };
            let rest = rest.to_string();
            self.pos += 1;
            if rest.is_empty() {
                // Item is a nested block (or null if nothing deeper).
                if self.pos < self.lines.len() && self.lines[self.pos].indent > indent {
                    let child_indent = self.lines[self.pos].indent;
                    items.push(self.parse_block(child_indent, depth)?);
                } else {
                    items.push(Value::Null);
                }
            } else if is_map_entry(&rest) {
                if depth == MAX_DEPTH {
                    return Err(too_deep(no));
                }
                // Inline map start after the dash: the remainder replaces the
                // consumed dash line as a virtual line at the item's child
                // indent (in place: inserting would make long sequences of
                // maps quadratic).
                let child_indent = indent + 2;
                self.pos -= 1;
                self.lines[self.pos] = Line { indent: child_indent, text: rest, no };
                // Following lines of this item may be indented deeper than
                // `indent` but not exactly at child_indent (e.g. dash at 0,
                // item body at 1 space deeper); normalize only exact-depth
                // blocks — deeper ones still parse because parse_map uses the
                // first line's indent. Lines between indent+1 .. child_indent
                // would be ambiguous; YAML proper allows them, our subset
                // requires item bodies at `indent + 2`.
                items.push(self.parse_map(child_indent, depth + 1)?);
            } else {
                items.push(parse_scalar(&rest, no, depth)?);
            }
        }
        Ok(Value::Seq(items))
    }

    /// Parse a block map whose values sit inside `depth` open collections
    /// (the map included).
    fn parse_map(&mut self, indent: usize, depth: usize) -> Result<Value, ParseError> {
        let mut entries = MapEntries::new();
        while self.pos < self.lines.len() {
            let line = &self.lines[self.pos];
            if line.indent != indent {
                if line.indent > indent {
                    return Err(ParseError::new(
                        line.no,
                        "unexpected deeper indentation in mapping",
                    ));
                }
                break;
            }
            if line.text == "-" || line.text.starts_with("- ") {
                break;
            }
            let no = line.no;
            let text = line.text.clone();
            let (key, rest) = split_map_entry(&text).ok_or_else(|| {
                ParseError::new(no, format!("expected 'key: value', got '{text}'"))
            })?;
            if entries.contains(&key) {
                return Err(ParseError::new(no, format!("duplicate key '{key}'")));
            }
            self.pos += 1;
            let value = if rest.is_empty() {
                if self.pos < self.lines.len() && self.lines[self.pos].indent > indent {
                    let child_indent = self.lines[self.pos].indent;
                    self.parse_block(child_indent, depth)?
                } else {
                    Value::Null
                }
            } else {
                parse_scalar(rest, no, depth)?
            };
            entries.push(key, value);
        }
        Ok(entries.into_value())
    }
}

/// Does this line fragment look like `key: ...`?
fn is_map_entry(s: &str) -> bool {
    split_map_entry(s).is_some()
}

/// Split `key: value` into (key, value-str), respecting quoted keys.
/// Returns None if there is no top-level `: ` (or trailing `:`).
fn split_map_entry(s: &str) -> Option<(String, &str)> {
    let bytes = s.as_bytes();
    if bytes.is_empty() {
        return None;
    }
    // Quoted key.
    if bytes[0] == b'"' || bytes[0] == b'\'' {
        let quote = bytes[0];
        let mut i = 1;
        let mut escaped = false;
        while i < bytes.len() {
            let b = bytes[i];
            if escaped {
                escaped = false;
            } else if b == b'\\' && quote == b'"' {
                escaped = true;
            } else if b == quote {
                break;
            }
            i += 1;
        }
        if i >= bytes.len() {
            return None; // unterminated quote: not a map entry
        }
        let key_src = &s[..=i];
        let rest = s[i + 1..].trim_start();
        let rest = rest.strip_prefix(':')?;
        let key = match parse_quoted(key_src) {
            Ok(k) => k,
            Err(_) => return None,
        };
        return Some((key, rest.trim_start()));
    }
    // Plain key: find the first ':' that is followed by space or EOL and not
    // inside a flow collection or quotes.
    let mut depth = 0i32;
    let mut in_single = false;
    let mut in_double = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_double => escaped = true,
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'[' | b'{' if !in_single && !in_double => depth += 1,
            b']' | b'}' if !in_single && !in_double => depth -= 1,
            b':' if !in_single
                && !in_double
                && depth == 0
                && (i + 1 == bytes.len() || bytes[i + 1] == b' ') =>
            {
                let key = s[..i].trim();
                if key.is_empty() {
                    return None;
                }
                return Some((key.to_string(), s[i + 1..].trim_start()));
            }
            _ => {}
        }
    }
    None
}

/// Parse a scalar or a one-line flow collection, inside `depth` open
/// collections.
fn parse_scalar(s: &str, no: usize, depth: usize) -> Result<Value, ParseError> {
    let s = s.trim();
    if s.is_empty() {
        return Ok(Value::Null);
    }
    match s.as_bytes()[0] {
        b'[' | b'{' => {
            let mut f = FlowParser { src: s.as_bytes(), pos: 0, no };
            let v = f.parse_value(depth)?;
            f.skip_ws();
            if f.pos != f.src.len() {
                return Err(ParseError::new(no, "trailing characters after flow collection"));
            }
            Ok(v)
        }
        b'"' | b'\'' => Ok(Value::Str(parse_quoted(s).map_err(|m| ParseError::new(no, m))?)),
        b'|' | b'>' => Err(ParseError::new(no, "block scalars (| and >) are not supported")),
        b'&' | b'*' => Err(ParseError::new(no, "anchors and aliases are not supported")),
        _ => Ok(plain_scalar(s)),
    }
}

/// Decode a quoted scalar (whole string must be the quoted token).
fn parse_quoted(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let quote = bytes[0];
    if bytes.len() < 2 || bytes[bytes.len() - 1] != quote {
        return Err("unterminated quoted string".into());
    }
    let inner = &s[1..s.len() - 1];
    if quote == b'\'' {
        // Single quotes: '' escapes a quote, nothing else is special.
        return Ok(inner.replace("''", "'"));
    }
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('0') => out.push('\0'),
            Some(other) => return Err(format!("unsupported escape '\\{other}'")),
            None => return Err("dangling backslash".into()),
        }
    }
    Ok(out)
}

/// Type a plain (unquoted) scalar.
fn plain_scalar(s: &str) -> Value {
    match s {
        "null" | "Null" | "NULL" | "~" => return Value::Null,
        "true" | "True" | "TRUE" => return Value::Bool(true),
        "false" | "False" | "FALSE" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        // Reject leading '+' and leading zeros ("007") to stay predictable.
        let ok = !s.starts_with('+')
            && (s.len() <= 1 || !s.starts_with('0'))
            && (s.len() <= 2 || !s.starts_with("-0"));
        if ok {
            return Value::Int(i);
        }
    }
    if looks_like_float(s) {
        if let Ok(f) = s.parse::<f64>() {
            if f.is_finite() {
                return Value::Float(f);
            }
        }
    }
    Value::Str(s.to_string())
}

fn looks_like_float(s: &str) -> bool {
    let mut has_digit = false;
    let mut has_marker = false;
    for c in s.chars() {
        match c {
            '0'..='9' => has_digit = true,
            '.' | 'e' | 'E' => has_marker = true,
            '+' | '-' => {}
            _ => return false,
        }
    }
    has_digit && has_marker
}

/// One-line flow-collection parser (`[..]`, `{..}`).
struct FlowParser<'a> {
    src: &'a [u8],
    pos: usize,
    no: usize,
}

impl<'a> FlowParser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.no, msg)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len()
            && (self.src[self.pos] == b' ' || self.src[self.pos] == b'\t')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    /// Parse the value at `pos`, which sits inside `depth` open
    /// collections, block and flow.
    fn parse_value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(too_deep(self.no)),
            Some(b'[') => self.parse_flow_seq(depth + 1),
            Some(b'{') => self.parse_flow_map(depth + 1),
            Some(b'"') | Some(b'\'') => {
                let tok = self.take_quoted()?;
                parse_quoted(&tok).map(Value::Str).map_err(|m| self.err(m))
            }
            Some(_) => {
                let tok = self.take_plain();
                Ok(plain_scalar(tok.trim()))
            }
            None => Err(self.err("unexpected end of flow collection")),
        }
    }

    fn parse_flow_seq(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                None => return Err(self.err("unterminated '['")),
                _ => {}
            }
            items.push(self.parse_value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {}
                _ => return Err(self.err("expected ',' or ']' in flow sequence")),
            }
        }
    }

    fn parse_flow_map(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // consume '{'
        let mut entries = MapEntries::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(entries.into_value());
                }
                None => return Err(self.err("unterminated '{'")),
                _ => {}
            }
            let key = match self.peek() {
                Some(b'"') | Some(b'\'') => {
                    let tok = self.take_quoted()?;
                    parse_quoted(&tok).map_err(|m| self.err(m))?
                }
                _ => {
                    let start = self.pos;
                    while self.pos < self.src.len()
                        && !matches!(self.src[self.pos], b':' | b',' | b'}')
                    {
                        self.pos += 1;
                    }
                    std::str::from_utf8(&self.src[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?
                        .trim()
                        .to_string()
                }
            };
            if key.is_empty() {
                return Err(self.err("empty key in flow map"));
            }
            if entries.contains(&key) {
                return Err(self.err(format!("duplicate key '{key}'")));
            }
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' in flow map"));
            }
            self.pos += 1;
            let value = self.parse_value(depth)?;
            entries.push(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {}
                _ => return Err(self.err("expected ',' or '}' in flow map")),
            }
        }
    }

    /// Take a quoted token including its quotes.
    fn take_quoted(&mut self) -> Result<String, ParseError> {
        let quote = self.src[self.pos];
        let start = self.pos;
        self.pos += 1;
        let mut escaped = false;
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if escaped {
                escaped = false;
            } else if b == b'\\' && quote == b'"' {
                escaped = true;
            } else if b == quote {
                self.pos += 1;
                return Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned());
            }
            self.pos += 1;
        }
        Err(self.err("unterminated quoted string"))
    }

    /// Take a plain token up to a flow delimiter.
    fn take_plain(&mut self) -> String {
        let start = self.pos;
        while self.pos < self.src.len() && !matches!(self.src[self.pos], b',' | b']' | b'}' | b':')
        {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_block(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match v {
        Value::Map(entries) if entries.is_empty() => {
            out.push_str(&pad);
            out.push_str("{}\n");
        }
        Value::Seq(items) if items.is_empty() => {
            out.push_str(&pad);
            out.push_str("[]\n");
        }
        Value::Map(entries) => {
            for (k, val) in entries {
                out.push_str(&pad);
                out.push_str(&key_to_yaml(k));
                out.push(':');
                match val {
                    Value::Map(e) if !e.is_empty() => {
                        out.push('\n');
                        write_block(val, indent + 1, out);
                    }
                    Value::Seq(items) if !items.is_empty() => {
                        out.push('\n');
                        write_block(val, indent + 1, out);
                    }
                    _ => {
                        out.push(' ');
                        out.push_str(&scalar_to_yaml(val));
                        out.push('\n');
                    }
                }
            }
        }
        Value::Seq(items) => {
            for item in items {
                match item {
                    Value::Map(e) if !e.is_empty() => {
                        // Dash followed by the first entry inline.
                        out.push_str(&pad);
                        out.push_str("-\n");
                        write_block(item, indent + 1, out);
                    }
                    Value::Seq(inner) if !inner.is_empty() => {
                        out.push_str(&pad);
                        out.push_str("-\n");
                        write_block(item, indent + 1, out);
                    }
                    _ => {
                        out.push_str(&pad);
                        out.push_str("- ");
                        out.push_str(&scalar_to_yaml(item));
                        out.push('\n');
                    }
                }
            }
        }
        scalar => {
            out.push_str(&pad);
            out.push_str(&scalar_to_yaml(scalar));
            out.push('\n');
        }
    }
}

fn key_to_yaml(k: &str) -> String {
    if needs_quoting(k) {
        quote_double(k)
    } else {
        k.to_string()
    }
}

fn scalar_to_yaml(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format_float(*f),
        Value::Str(s) => {
            if needs_quoting(s) {
                quote_double(s)
            } else {
                s.clone()
            }
        }
        Value::Map(e) if e.is_empty() => "{}".to_string(),
        Value::Seq(s) if s.is_empty() => "[]".to_string(),
        _ => unreachable!("non-scalar passed to scalar_to_yaml"),
    }
}

fn format_float(f: f64) -> String {
    if !f.is_finite() {
        return "null".to_string(); // documents must stay parseable
    }
    let s = format!("{f:?}");
    debug_assert!(s.contains('.') || s.contains('e') || s.contains('E'));
    s
}

/// Would this string be misread if written plainly?
fn needs_quoting(s: &str) -> bool {
    if s.is_empty() {
        return true;
    }
    if s.trim() != s {
        return true;
    }
    // Would be typed as something else.
    if !matches!(plain_scalar(s), Value::Str(_)) {
        return true;
    }
    let first = s.chars().next().unwrap();
    if matches!(
        first,
        '-' | '?'
            | '#'
            | '&'
            | '*'
            | '!'
            | '|'
            | '>'
            | '\''
            | '"'
            | '%'
            | '@'
            | '`'
            | '['
            | ']'
            | '{'
            | '}'
            | ','
    ) {
        return true;
    }
    if s.contains(": ") || s.ends_with(':') || s.contains(" #") {
        return true;
    }
    s.chars().any(|c| c.is_control())
}

fn quote_double(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\0' => out.push_str("\\0"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_workcell_document() {
        let doc = r#"
# RPL workcell (paper Figure 1)
name: rpl_workcell
modules:
  - name: sciclops
    type: plate_crane
    config:
      towers: 4
  - name: pf400
    type: manipulator
options:
  retries: 3
  timeout: 12.5
  live: false
"#;
        let v = from_yaml(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("rpl_workcell"));
        let modules = v.get("modules").unwrap().as_seq().unwrap();
        assert_eq!(modules.len(), 2);
        assert_eq!(modules[0].get("name").unwrap().as_str(), Some("sciclops"));
        assert_eq!(modules[0].get("config").unwrap().get("towers").unwrap().as_i64(), Some(4));
        assert_eq!(v.get("options").unwrap().get("timeout").unwrap().as_f64(), Some(12.5));
        assert_eq!(v.get("options").unwrap().get("live").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn scalar_typing() {
        let v =
            from_yaml("a: 3\nb: 3.5\nc: true\nd: null\ne: ~\nf: hello\ng: -7\nh: 1e3\n").unwrap();
        assert_eq!(v.get("a").unwrap(), &Value::Int(3));
        assert_eq!(v.get("b").unwrap(), &Value::Float(3.5));
        assert_eq!(v.get("c").unwrap(), &Value::Bool(true));
        assert!(v.get("d").unwrap().is_null());
        assert!(v.get("e").unwrap().is_null());
        assert_eq!(v.get("f").unwrap().as_str(), Some("hello"));
        assert_eq!(v.get("g").unwrap(), &Value::Int(-7));
        assert_eq!(v.get("h").unwrap(), &Value::Float(1000.0));
    }

    #[test]
    fn leading_zero_stays_string() {
        let v = from_yaml("id: 007\n").unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("007"));
    }

    #[test]
    fn quoted_strings_and_escapes() {
        let v = from_yaml(
            r#"a: "x: y # not a comment"
b: 'single ''quoted'''
c: "line\nbreak"
"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("x: y # not a comment"));
        assert_eq!(v.get("b").unwrap().as_str(), Some("single 'quoted'"));
        assert_eq!(v.get("c").unwrap().as_str(), Some("line\nbreak"));
    }

    #[test]
    fn flow_collections() {
        let v = from_yaml("volumes: [1.5, 2, 3.25]\nwell: {row: A, col: 1}\nempty: []\nnone: {}\n")
            .unwrap();
        let vols = v.get("volumes").unwrap().as_seq().unwrap();
        assert_eq!(vols.len(), 3);
        assert_eq!(vols[1], Value::Int(2));
        assert_eq!(v.get("well").unwrap().get("row").unwrap().as_str(), Some("A"));
        assert_eq!(v.get("empty").unwrap().as_seq().unwrap().len(), 0);
        assert_eq!(v.get("none").unwrap().as_map().unwrap().len(), 0);
    }

    #[test]
    fn top_level_sequence() {
        let v = from_yaml("- alpha\n- 2\n- name: x\n  kind: y\n").unwrap();
        let items = v.as_seq().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].get("kind").unwrap().as_str(), Some("y"));
    }

    #[test]
    fn nested_sequences_under_dash() {
        let v = from_yaml("-\n  - 1\n  - 2\n- 3\n").unwrap();
        let items = v.as_seq().unwrap();
        assert_eq!(items[0].as_seq().unwrap().len(), 2);
        assert_eq!(items[1], Value::Int(3));
    }

    #[test]
    fn document_marker_and_comments() {
        let v = from_yaml("---\n# comment only\nkey: value # trailing\n").unwrap();
        assert_eq!(v.get("key").unwrap().as_str(), Some("value"));
    }

    #[test]
    fn errors_have_line_numbers() {
        let err = from_yaml("ok: 1\n\tbad: 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = from_yaml("a: 1\na: 2\n").unwrap_err();
        assert!(err.msg.contains("duplicate"));
        let err = from_yaml("a: |\n  block\n").unwrap_err();
        assert!(err.msg.contains("block scalars"));
        let err = from_yaml("a: [1, 2\n").unwrap_err();
        assert!(err.msg.contains("']'") || err.msg.contains("unterminated"), "{}", err.msg);
    }

    #[test]
    fn empty_document_is_null() {
        assert!(from_yaml("").unwrap().is_null());
        assert!(from_yaml("# only a comment\n").unwrap().is_null());
    }

    #[test]
    fn writer_roundtrips_a_tree() {
        let mut root = Value::map();
        root.set("name", "demo");
        let mut m = Value::map();
        m.set("count", 3).set("rate", 0.25).set("on", true).set("note", Value::Null);
        root.set("inner", m);
        root.set("list", vec![1i64, 2, 3]);
        let mut weird = Value::map();
        weird.set("needs quoting", "yes: it does # really");
        weird.set("number-ish", "007");
        root.set("strings", weird);
        let text = to_yaml(&root);
        let back = from_yaml(&text).unwrap();
        assert_eq!(back, root, "yaml:\n{text}");
    }

    #[test]
    fn writer_handles_seq_of_maps() {
        let mut a = Value::map();
        a.set("x", 1);
        let mut b = Value::map();
        b.set("y", 2.5);
        let root = Value::Seq(vec![a, b]);
        let text = to_yaml(&root);
        assert_eq!(from_yaml(&text).unwrap(), root);
    }

    #[test]
    fn nesting_is_refused_one_level_past_the_limit() {
        let flow =
            |depth: usize| format!("a: {}1{}\n", "[".repeat(depth - 1), "]".repeat(depth - 1));
        // The block map is one level, so `a:` holds MAX_DEPTH - 1 more.
        assert!(from_yaml(&flow(MAX_DEPTH)).is_ok());
        let err = from_yaml(&format!("x: 1\n{}", flow(MAX_DEPTH + 1))).unwrap_err();
        assert_eq!((err.line, err.msg.as_str()), (2, "nesting deeper than 128 levels"));
        let err = from_yaml(&"[".repeat(200_000)).unwrap_err();
        assert_eq!((err.line, err.msg.as_str()), (1, "nesting deeper than 128 levels"));
        // Block nesting counts the same way, flow maps too.
        let block = |depth: usize| {
            (0..depth).map(|d| format!("{}k{d}:\n", " ".repeat(d))).collect::<String>()
        };
        assert!(from_yaml(&block(MAX_DEPTH)).is_ok());
        let err = from_yaml(&block(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.line, err.msg.as_str()), (MAX_DEPTH + 1, "nesting deeper than 128 levels"));
        let maps = format!("m: {}1{}\n", "{a: ".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(from_yaml(&maps).unwrap_err().msg.contains("nesting deeper"));
    }

    #[test]
    fn duplicate_keys_are_found_in_maps_of_any_size() {
        for n in [2, 15, 16, 17, 1_000] {
            let block: String = (0..n).map(|i| format!("k{i}: {i}\n")).collect();
            assert_eq!(from_yaml(&block).unwrap().as_map().map(<[_]>::len), Some(n));
            let err = from_yaml(&format!("{block}k{}: 0\n", n / 2)).unwrap_err();
            assert_eq!((err.line, err.msg.clone()), (n + 1, format!("duplicate key 'k{}'", n / 2)));
            let flow: Vec<String> = (0..n).map(|i| format!("k{i}: {i}")).collect();
            let ok = format!("m: {{{}}}\n", flow.join(", "));
            assert_eq!(
                from_yaml(&ok).unwrap().get("m").and_then(Value::as_map).map(<[_]>::len),
                Some(n)
            );
            let dup = format!("x: 1\nm: {{{}, k{}: 0}}\n", flow.join(", "), n - 1);
            let err = from_yaml(&dup).unwrap_err();
            assert_eq!((err.line, err.msg.clone()), (2, format!("duplicate key 'k{}'", n - 1)));
        }
    }

    #[test]
    fn long_sequences_of_inline_maps_parse() {
        let doc: String = (0..3).map(|i| format!("- name: m{i}\n  tips: {i}\n")).collect();
        let v = from_yaml(&doc).unwrap();
        let items = v.as_seq().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].get("tips"), Some(&Value::Int(2)));
        assert_eq!(items[1].get("name").and_then(Value::as_str), Some("m1"));
    }

    #[test]
    fn colon_inside_flow_value() {
        let v = from_yaml("pos: {x: 1, y: 2}\n").unwrap();
        assert_eq!(v.get("pos").unwrap().get("y").unwrap().as_i64(), Some(2));
    }
}
