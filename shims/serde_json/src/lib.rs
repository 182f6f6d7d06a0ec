//! Offline stand-in for `serde_json`.
//!
//! Renders the serde shim's [`Value`] model to JSON text and parses it
//! back: `to_string`, `to_string_pretty`, `from_str`, and a flat `json!`
//! macro — the full surface this workspace uses.

pub use serde::{Error, Value};

use serde::{Deserialize, Serialize};

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize to pretty-printed JSON (2-space indent, like serde_json).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse a JSON document into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse_value(s)?;
    T::from_value(&value)
}

/// Convert any serializable value into a [`Value`] (for `json!`).
pub fn to_value_of<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Build a [`Value`] from a flat literal: `json!({"k": expr, ...})`,
/// `json!([expr, ...])`, `json!(null)`, or `json!(expr)`. Values are
/// expressions converted through `Serialize` (nest by passing another
/// `json!` call as the expression).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (($key).to_string(), $crate::to_value_of(&$val)) ),*
        ])
    };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value_of(&$elem) ),* ])
    };
    ($other:expr) => { $crate::to_value_of(&$other) };
}

// ---------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

/// JSON has no NaN/Infinity — they print as `null` (serde_json's
/// behavior). Integral floats keep a `.0` so they re-parse as floats.
fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        out.push_str(&format!("{x:.1}"));
    } else {
        out.push_str(&format!("{x}"));
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

// ---------------------------------------------------------------------
// Parser (recursive descent)
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair
                                if !(self.eat_keyword("\\u")) {
                                    return Err(Error::new("lone surrogate"));
                                }
                                let lo = self.hex4()?;
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(code).ok_or_else(|| Error::new("bad surrogate"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| Error::new("bad \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced
                        }
                        _ => return Err(Error::new("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input came from &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::new("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::new("bad \\u escape"))?;
        let n = u32::from_str_radix(s, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos = end;
        Ok(n)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(n) = stripped.parse::<u64>() {
                    if let Ok(i) = i64::try_from(n) {
                        return Ok(Value::I64(-i));
                    }
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let v = json!({
            "name": "cg",
            "rates": [0.75, 0.25, 0.0],
            "tests": 4000u64,
            "neg": -3i64,
            "nested": json!([json!({"x": 1u64})]),
            "flag": true,
            "nothing": Value::Null,
        });
        let compact = to_string(&v).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Value>(&compact).unwrap(), v);
        assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Value::Str("line\n\ttab \"quote\" \\ unicode ✓ \u{1}".to_string());
        let s = to_string(&v).unwrap();
        assert_eq!(from_str::<Value>(&s).unwrap(), v);
    }

    #[test]
    fn numbers_keep_class() {
        assert_eq!(
            from_str::<Value>("18446744073709551615").unwrap(),
            Value::U64(u64::MAX)
        );
        assert_eq!(from_str::<Value>("-7").unwrap(), Value::I64(-7));
        assert_eq!(from_str::<Value>("2.5").unwrap(), Value::F64(2.5));
        assert_eq!(from_str::<Value>("1e3").unwrap(), Value::F64(1000.0));
        // integral floats keep their .0 through printing
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Named {
        id: u64,
        label: String,
        note: Option<String>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Newtype(u32);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Kind {
        Unit,
        Payload(u8),
    }

    /// `value` prints as exactly `json` and parses back to itself.
    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: T, json: &str) {
        assert_eq!(to_string(&value).unwrap(), json, "{value:?}");
        assert_eq!(from_str::<T>(json).unwrap(), value, "{json}");
    }

    /// One row per `Serialize`/`Deserialize` impl the serde shim keeps,
    /// and one per derive shape the workspace uses.
    #[test]
    fn every_kept_impl_roundtrips() {
        use std::collections::BTreeMap;
        roundtrip(7u8, "7");
        roundtrip(4_000_000_000u32, "4000000000");
        roundtrip(u64::MAX, "18446744073709551615");
        roundtrip(42usize, "42");
        roundtrip(-3i64, "-3");
        roundtrip(5i64, "5");
        roundtrip(0.25f64, "0.25");
        roundtrip(2.0f64, "2.0");
        roundtrip(true, "true");
        roundtrip(String::from("cg \"p=4\""), r#""cg \"p=4\"""#);
        roundtrip(None::<u64>, "null");
        roundtrip(Some(3u64), "3");
        roundtrip(vec![1u64, 2], "[1,2]");
        roundtrip([0.5f64, 1.5], "[0.5,1.5]");
        roundtrip((9usize, String::from("x")), r#"[9,"x"]"#);
        roundtrip(BTreeMap::from([(String::from("a"), 1u64)]), r#"{"a":1}"#);
        roundtrip(BTreeMap::from([(7u64, true)]), r#"{"7":true}"#);
        roundtrip(BTreeMap::from([(3usize, -1i64)]), r#"{"3":-1}"#);
        roundtrip(json!({"k": [1u64]}), r#"{"k":[1]}"#);
        roundtrip(
            Named {
                id: 1,
                label: "lu".into(),
                note: None,
            },
            r#"{"id":1,"label":"lu","note":null}"#,
        );
        roundtrip(Newtype(8), "8");
        roundtrip(Kind::Unit, r#""Unit""#);
        roundtrip(Kind::Payload(2), r#"{"Payload":2}"#);
    }

    #[test]
    fn kept_impls_reject_mismatched_input() {
        let err = from_str::<[u64; 3]>("[1,2]").unwrap_err();
        assert!(err.to_string().contains("length 3"), "{err}");
        let err = from_str::<Kind>(r#""Other""#).unwrap_err();
        assert!(
            err.to_string().contains("unknown Kind variant Other"),
            "{err}"
        );
        let err = from_str::<Kind>(r#"{"Other":1}"#).unwrap_err();
        assert!(
            err.to_string().contains("unknown Kind variant Other"),
            "{err}"
        );
        // A missing `Option` field reads as `None`; a missing required one fails.
        assert_eq!(
            from_str::<Named>(r#"{"id":1,"label":"lu"}"#).unwrap().note,
            None
        );
        assert!(from_str::<Named>(r#"{"id":1}"#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{\"a\" 1}").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }
}
