//! Offline stand-in for `serde_json`: renders and parses the serde shim's
//! [`Value`] tree as JSON text. Integers print as integer literals and
//! floats via `{:?}` (shortest round-tripping form, always containing a
//! `.` or exponent), so the Int/Float distinction survives a round trip.

pub use serde::Value;

use std::fmt::Write as _;

/// Error type, nominally distinct from [`serde::Error`] to mirror the real
/// crate split.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

pub fn to_value<T: serde::Serialize>(value: &T) -> Value {
    value.to_value()
}

pub fn from_value<T: serde::Deserialize>(v: &Value) -> Result<T, Error> {
    T::from_value(v).map_err(Error::from)
}

pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse(s)?;
    T::from_value(&v).map_err(Error::from)
}

// ---------------------------------------------------------------------------
// rendering
// ---------------------------------------------------------------------------

fn render(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // {:?} keeps a `.` or exponent, so the parser reads a Float
                let _ = write!(out, "{f:?}");
            } else {
                out.push_str("null"); // JSON has no NaN/Inf, as in serde_json
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Arr(items) => render_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
            render(&items[i], out, indent, depth + 1)
        }),
        Value::Obj(fields) => render_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
            render_string(&fields[i].0, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            render(&fields[i].1, out, indent, depth + 1)
        }),
    }
}

fn render_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

fn render_string(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------------
// parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(Error(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(Error(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error(format!("unexpected byte at {}", self.pos))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u codepoint".into()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error("bad escape".into())),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy the plain run up to the next quote or backslash in
                    // one step; both are ASCII, so the run ends on a UTF-8
                    // boundary and is validated once
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| Error("invalid UTF-8".into()))?;
                    out.push_str(run);
                    self.pos += len;
                }
                None => return Err(Error("unterminated string".into())),
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
            .map_err(|_| Error("bad number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("bad float `{text}`")))
        } else {
            match text.parse::<i128>() {
                Ok(i) => Ok(Value::Int(i)),
                // fall back for integers beyond i128 (serde_json uses f64 too)
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error(format!("bad number `{text}`"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Point {
        x: f64,
        y: u64,
        tag: String,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Empty,
        Dot(Point),
        Pair(u32, u32),
        Rect { w: f64, h: f64 },
    }

    #[test]
    fn struct_roundtrip() {
        let p = Point {
            x: -1.5e-3,
            y: (1 << 60) + 7,
            tag: "a \"quoted\"\nname".into(),
        };
        let s = to_string(&p).unwrap();
        let q: Point = from_str(&s).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn enum_roundtrip_all_shapes() {
        for shape in [
            Shape::Empty,
            Shape::Dot(Point {
                x: 1.0,
                y: 2,
                tag: "t".into(),
            }),
            Shape::Pair(3, 4),
            Shape::Rect { w: 0.5, h: 2.25 },
        ] {
            let s = to_string(&shape).unwrap();
            let back: Shape = from_str(&s).unwrap();
            assert_eq!(shape, back);
        }
    }

    #[test]
    fn pretty_output_parses_back() {
        let p = Point {
            x: 1.0,
            y: 2,
            tag: "z".into(),
        };
        let s = to_string_pretty(&p).unwrap();
        assert!(s.contains('\n'));
        let q: Point = from_str(&s).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn float_int_distinction_survives() {
        let s = to_string(&vec![1.0f64, 2.5]).unwrap();
        assert_eq!(s, "[1.0,2.5]");
        let v: Vec<f64> = from_str(&s).unwrap();
        assert_eq!(v, vec![1.0, 2.5]);
    }

    #[test]
    fn multibyte_utf8_next_to_escapes_roundtrips() {
        for tag in [
            "é\"ü",
            "\\∑\n",
            "日本\t語\\",
            "\u{1F600}\"",
            "\"\u{1F600}",
            "ß",
            "",
        ] {
            let p = Point {
                x: 0.0,
                y: 1,
                tag: tag.into(),
            };
            let back: Point = from_str(&to_string(&p).unwrap()).unwrap();
            assert_eq!(p, back, "{tag:?}");
        }
        // a \u escape right before and after multi-byte text
        let v: String = from_str("\"\\u00e9é\\u00e9\"").unwrap();
        assert_eq!(v, "ééé");
    }

    #[test]
    fn long_multibyte_string_parses_whole() {
        let tag: String = "añ∑😀\"\\".repeat(5_000);
        let p = Point { x: 2.0, y: 3, tag };
        let back: Point = from_str(&to_string(&p).unwrap()).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(from_str::<String>("\"abc é").is_err());
        assert!(from_str::<String>("\"abc\\").is_err());
    }

    #[test]
    fn nonfinite_floats_become_null_and_read_back_as_nan() {
        let s = to_string(&f64::NAN).unwrap();
        assert_eq!(s, "null");
        let v: f64 = from_str(&s).unwrap();
        assert!(v.is_nan());
    }
}
