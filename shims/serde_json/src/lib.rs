//! Offline stub of the `serde_json` API surface used by this workspace:
//! [`to_string`], [`to_string_pretty`], and [`from_str`] over the shim
//! `serde::Value` data model. See `shims/README.md`.
//!
//! Numbers round-trip exactly: floats are printed with Rust's shortest
//! round-trip formatting, and infinities are encoded as `1e999` / `-1e999`
//! (which parse back to the same infinities).

#![forbid(unsafe_code)]

pub use serde::{Error, Value};

use serde::{Deserialize, Serialize};

/// Serializes a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), None, 0);
    Ok(out)
}

/// Serializes a value to human-readable, indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any shim-`Deserialize` type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::deserialize_value(&value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                write_newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            if !entries.is_empty() {
                write_newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn write_newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_nan() {
        out.push_str("null");
    } else if f == f64::INFINITY {
        // Overflows any f64 parse back to +inf; keeps infinities round-tripping.
        out.push_str("1e999");
    } else if f == f64::NEG_INFINITY {
        out.push_str("-1e999");
    } else {
        // Rust's shortest round-trip representation; always contains '.' or 'e'
        // for non-integral values, and plain digits like "2" for integral ones,
        // which still parses back as a float-compatible number.
        let formatted = format!("{f:?}");
        out.push_str(&formatted);
    }
}

fn write_string(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest container nesting [`from_str`] accepts (the limit real
/// `serde_json` applies by default). The parser recurses once per level, so
/// an unbounded depth would let one request body overflow the thread's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

fn parse_value(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') if self.consume_literal("null") => Ok(Value::Null),
            Some(b't') if self.consume_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.consume_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected input {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    /// Parses one array or object one level deeper, refusing to open a
    /// container beyond [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]`, found {other:?} at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}`, found {other:?} at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the run up to the next quote or escape. Both are ASCII, so
                    // the run ends on a character boundary and is validated once.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&3u64).unwrap(), "3");
        assert_eq!(to_string(&-4i64).unwrap(), "-4");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&0.25f64).unwrap(), "0.25");
        assert_eq!(from_str::<u64>("3").unwrap(), 3);
        assert_eq!(from_str::<f64>("0.25").unwrap(), 0.25);
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [
            0.1,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -2.5e-8,
            1e20,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, f, "{text}");
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let text = to_string(&v).unwrap();
        assert_eq!(text, "[1,null,3]");
        assert_eq!(from_str::<Vec<Option<u32>>>(&text).unwrap(), v);

        let pairs: Vec<(usize, f64)> = vec![(0, 0.5), (2, 1.5)];
        let text = to_string(&pairs).unwrap();
        assert_eq!(from_str::<Vec<(usize, f64)>>(&text).unwrap(), pairs);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "he said \"hi\"\nline2\tend \\ π".to_string();
        let text = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&text).unwrap(), s);
        assert_eq!(from_str::<String>("\"\\u0041\"").unwrap(), "A");
    }

    /// Parses a JSON string literal; errors compare by message.
    fn parse_string(text: &str) -> Result<String, String> {
        from_str::<String>(text).map_err(|e| e.to_string())
    }

    #[test]
    fn strings_keep_multibyte_characters() {
        // 1-, 2-, 3- and 4-byte UTF-8 encodings, alone and in runs.
        for s in [
            "a",
            "é",
            "中",
            "😀",
            "aé中😀z",
            "ééé",
            "😀😀",
            "Zoë Ångström 東京",
        ] {
            assert_eq!(parse_string(&format!("\"{s}\"")), Ok(s.to_string()), "{s}");
        }
        assert_eq!(parse_string("\"\""), Ok(String::new()));
    }

    #[test]
    fn escapes_next_to_multibyte_characters() {
        assert_eq!(
            parse_string(r#""é\n中\"😀\\""#),
            Ok("é\n中\"😀\\".to_string())
        );
        assert_eq!(
            parse_string(r#""\t😀\/é\b\f\r""#),
            Ok("\t😀/é\u{8}\u{c}\r".to_string())
        );
        assert_eq!(parse_string(r#""\\\\中\\""#), Ok("\\\\中\\".to_string()));
    }

    #[test]
    fn unicode_escapes_decode_or_fail_as_before() {
        assert_eq!(parse_string(r#""\u00e9\u4E2D""#), Ok("é中".to_string()));
        assert_eq!(parse_string(r#""中\u0041é""#), Ok("中Aé".to_string()));
        // Surrogate halves are not paired up: each one is an invalid code point.
        assert_eq!(
            parse_string(r#""\ud83d\ude00""#),
            Err("serde: invalid \\u code point".to_string())
        );
        assert_eq!(
            parse_string(r#""\u12G4""#),
            Err("serde: invalid \\u escape".to_string())
        );
        assert_eq!(
            parse_string(r#""\u12""#),
            Err("serde: truncated \\u escape".to_string())
        );
        assert_eq!(
            parse_string(r#""\u12"#),
            Err("serde: truncated \\u escape".to_string())
        );
        assert_eq!(
            parse_string(r#""\uZZZZ""#),
            Err("serde: invalid \\u escape".to_string())
        );
        assert_eq!(
            parse_string(r#""\x""#),
            Err("serde: invalid escape Some(120)".to_string())
        );
    }

    #[test]
    fn unterminated_strings_are_rejected() {
        for text in ["\"", "\"abc", "\"aé中😀", "\"esc\\\"", "\"\\u0041"] {
            assert_eq!(
                parse_string(text),
                Err("serde: unterminated string".to_string()),
                "{text}"
            );
        }
        assert_eq!(
            parse_string("\"ends in a backslash\\"),
            Err("serde: invalid escape None".to_string())
        );
        assert_eq!(
            from_str::<Vec<String>>("[\"é\", \"中").map_err(|e| e.to_string()),
            Err("serde: unterminated string".to_string())
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str::<u64>("").is_err());
        assert!(from_str::<u64>("12trailing").is_err());
        assert!(from_str::<Vec<u64>>("[1,2").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }

    /// `depth` nested containers around a `0`, cycling through `kinds`
    /// (`'['` or `'{'`) from the outside in.
    fn nest(depth: usize, kinds: &[char]) -> String {
        let kinds: Vec<char> = (0..depth).map(|i| kinds[i % kinds.len()]).collect();
        let mut text = String::new();
        for &kind in &kinds {
            text.push_str(if kind == '[' { "[" } else { "{\"k\":" });
        }
        text.push('0');
        for &kind in kinds.iter().rev() {
            text.push(if kind == '[' { ']' } else { '}' });
        }
        text
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        for kinds in [&['['][..], &['{'], &['[', '{'], &['{', '{', '[']] {
            assert!(
                from_str::<Value>(&nest(MAX_DEPTH, kinds)).is_ok(),
                "{kinds:?}"
            );
            let over = nest(MAX_DEPTH + 1, kinds);
            // The error names the offset of the first bracket past the limit.
            let (offset, _) = over.match_indices(['[', '{']).nth(MAX_DEPTH).unwrap();
            assert_eq!(
                from_str::<Value>(&over).unwrap_err().to_string(),
                format!("serde: nesting deeper than 128 levels at byte {offset}"),
                "{kinds:?}"
            );
        }
        // A body of nothing but `[` fails at the limit instead of overflowing
        // the stack.
        let flood = "[".repeat(1 << 20);
        assert_eq!(
            from_str::<Value>(&flood).unwrap_err().to_string(),
            "serde: nesting deeper than 128 levels at byte 128"
        );
    }

    #[test]
    fn pretty_output_is_parseable() {
        let v: Vec<Vec<u32>> = vec![vec![1, 2], vec![]];
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains('\n'));
        assert_eq!(from_str::<Vec<Vec<u32>>>(&text).unwrap(), v);
    }
}
