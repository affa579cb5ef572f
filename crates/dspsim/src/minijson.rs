//! Minimal hand-rolled JSON reader/writer shared by [`crate::planfile`]
//! and the profile exporters.
//!
//! The workspace builds offline with no serialisation framework, so
//! every JSON codec in the tree is hand-written against this module.
//! The grammar is the subset those codecs need — objects, arrays, UTF-8
//! strings and numbers — and the reader rejects anything else loudly.
//! The string escapes are exactly the ones [`quote`] writes (`\"`, `\\`,
//! `\n`) plus `\/`; every other escape, `\uXXXX` included, is an error.
//! Numbers are kept as their source text until a field claims them, so
//! `u64` seeds survive beyond the 2^53 range where an `f64` detour would
//! silently round.

/// Parsed JSON value; numbers keep their source text so integer fields
/// never take a lossy `f64` detour.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number, kept as its source text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source field order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The fields of an object, or an error naming `what` was expected.
    pub fn as_obj(&self, what: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Obj(fields) => Ok(fields),
            _ => Err(format!("{what}: expected an object")),
        }
    }

    /// The items of an array, or an error naming `what` was expected.
    pub fn as_arr(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(format!("{what}: expected an array")),
        }
    }

    /// The contents of a string, or an error naming `what` was expected.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected a string")),
        }
    }

    /// A number as `u64` (exact; no float detour), or an error.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::Num(s) => s
                .parse::<u64>()
                .map_err(|e| format!("{what}: bad integer {s:?} ({e})")),
            _ => Err(format!("{what}: expected a number")),
        }
    }

    /// A number as `f64`, or an error.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Num(s) => s
                .parse::<f64>()
                .map_err(|e| format!("{what}: bad number {s:?} ({e})")),
            _ => Err(format!("{what}: expected a number")),
        }
    }

    /// Look up a field of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Quote and escape a string for embedding in JSON output.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Recursive-descent reader over the supported JSON subset.
pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser over `text`.
    pub fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// Parse one complete value; trailing non-whitespace is an error.
    pub fn parse(mut self) -> Result<Value, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!(
                "unexpected {:?} at byte {}",
                char::from(*c),
                self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Collected as bytes: the delimiters are ASCII, which never occurs
        // inside a multi-byte sequence, so the source's UTF-8 passes
        // through whole.
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| format!("bad string: {e}"));
                }
                Some(b'\\') => {
                    out.push(match self.bytes.get(self.pos + 1) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        Some(b'n') => b'\n',
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    });
                    self.pos += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a number at byte {start}"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII")
            .to_string();
        // Validate the token now so errors point at the source.
        text.parse::<f64>()
            .map_err(|e| format!("bad number {text:?} at byte {start} ({e})"))?;
        Ok(Value::Num(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_parse_and_project() {
        let v = Parser::new(r#"{ "a": [1, 2.5, "x"], "b": { "c": 18446744073709551615 } }"#)
            .parse()
            .unwrap();
        let arr = v.get("a").unwrap().as_arr("a").unwrap();
        assert_eq!(arr[0].as_u64("a0").unwrap(), 1);
        assert_eq!(arr[1].as_f64("a1").unwrap(), 2.5);
        assert_eq!(arr[2].as_str("a2").unwrap(), "x");
        // u64 beyond 2^53 survives exactly.
        let c = v.get("b").unwrap().get("c").unwrap();
        assert_eq!(c.as_u64("c").unwrap(), u64::MAX);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn reader_accepts_exactly_what_quote_emits() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        for text in ["a\nb", "say \"hi\"", "back\\slash\\n", "tenant-é ≡ 行"] {
            let back = Parser::new(&quote(text)).parse().unwrap();
            assert_eq!(back.as_str("s").unwrap(), text);
        }
        // Every escape the writer does not emit stays an error.
        for text in [r#""\t""#, r#""\u00e9""#, r#""\r""#] {
            let err = Parser::new(text).parse().unwrap_err();
            assert!(err.contains("unsupported escape"), "{text}: got {err:?}");
        }
    }

    #[test]
    fn malformed_inputs_error() {
        for (text, needle) in [
            ("{ \"a\": }", "unexpected"),
            ("[1 2]", "expected ','"),
            ("1 2", "trailing data"),
            ("\"abc", "unterminated"),
            ("{ \"a\": true }", "unexpected 't'"),
        ] {
            let err = Parser::new(text).parse().unwrap_err();
            assert!(err.contains(needle), "{text}: got {err:?}");
        }
    }
}
