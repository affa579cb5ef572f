//! The one JSON codec of the workspace: a reader ([`Parser`] → [`Value`]),
//! a streaming writer ([`Writer`]) and a strict object decoder
//! ([`Fields`]).
//!
//! The workspace builds offline with no serialisation framework, so every
//! persisted schema (`ftimm-plan-v1`, `ftimm-plan-catalog-v2`,
//! `ftimm-conformance-case-v1`), the `ftimm-profile-v1` document, the
//! Chrome trace and the `ftimm-bench-*-v1` reports are written — and the
//! persisted schemas decoded — through this module and nothing beside
//! it.
//!
//! **Grammar.**  The subset those documents need — objects, arrays, UTF-8
//! strings and numbers — and the reader rejects anything else loudly
//! (`true`, `false` and `null` included: flags are written as `0`/`1`).
//! The string escapes are exactly the ones the writer emits (`\"`, `\\`,
//! `\n`) plus `\/`; every other escape, `\uXXXX` included, is an error.
//! Numbers are kept as their source text until a field claims them, so
//! `u64` seeds survive beyond the 2^53 range where an `f64` detour would
//! silently round.
//!
//! **Layout.**  [`Writer::new`] takes the one layout parameter: containers
//! nested shallower than that depth are written one item per line with a
//! two-space indent, deeper ones inline as `{"m": 1, "n": 2}`; an empty
//! container is `{}` / `[]` at either layout.  Keys appear in call order.
//! Plan documents are written at depth 1 and that is pinned: the bytes of
//! `ftimm::plan_json` are folded into the `cold_plan_timing` benchmark's
//! output digest, so its layout is part of the repo's recorded results.
//!
//! **`f64` policy.**  A finite value is written with Rust's shortest
//! round-trip formatting (`{:?}`), so it reads back bit-equal.  JSON has
//! no literal for the rest, so every non-finite value is written as the
//! string `"inf"` — never a bare `inf`/`NaN`, which no reader accepts —
//! and [`Value::as_f64_or_inf`] / [`Fields::f64`] read that string back as
//! `INFINITY` (the sign and NaN-ness are not kept; no persisted field is
//! meaningfully `-inf` or NaN).
//!
//! **Strictness.**  [`Fields`] is what *strict* means for every in-repo
//! schema: an object with a duplicated key is rejected when the view is
//! made, each field is claimed at most once by name, a required field
//! that is absent is an error, and [`Fields::finish`] rejects any key
//! nobody claimed.  Duplicate-key rejection lives here and not in
//! [`Parser`], which also reads documents the repo does not own (the
//! benchmark harness's) and keeps every key of those in source order.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::Read;

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

    /// A number as `f64`, or the writer's `"inf"` sentinel as `INFINITY`
    /// (the read half of the module's `f64` policy).
    pub fn as_f64_or_inf(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Str(s) if s == "inf" => Ok(f64::INFINITY),
            v => v.as_f64(what),
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
    push_quoted(&mut out, s);
    out
}

fn push_quoted(out: &mut String, s: &str) {
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
}

/// Streaming JSON emitter: appends to one `String` and builds no tree.
///
/// Values are written in call order; inside an object every value is
/// preceded by its [`Writer::key`].  See the module docs for the layout
/// rule and the `f64` policy.
#[derive(Debug)]
pub struct Writer {
    out: String,
    /// Containers nested shallower than this are one item per line.
    expand: usize,
    /// One flag per open container: has it received an item yet?
    open: Vec<bool>,
    /// A key was just written, so the next value needs no separator.
    after_key: bool,
}

impl Writer {
    /// A writer that lays out containers nested shallower than `expand`
    /// one item per line and deeper ones inline.
    pub fn new(expand: usize) -> Self {
        Writer {
            out: String::new(),
            expand,
            open: Vec::new(),
            after_key: false,
        }
    }

    fn indent(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    /// Place whatever separates the next key or value from what came
    /// before it in the innermost open container.
    fn item(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let depth = self.open.len();
        let Some(has_items) = self.open.last_mut() else {
            return;
        };
        let first = !std::mem::replace(has_items, true);
        if !first {
            self.out.push(',');
        }
        if depth <= self.expand {
            self.indent(depth);
        } else if !first {
            self.out.push(' ');
        }
    }

    fn begin(&mut self, bracket: char) -> &mut Self {
        self.item();
        self.out.push(bracket);
        self.open.push(false);
        self
    }

    fn end(&mut self, bracket: char) -> &mut Self {
        let depth = self.open.len();
        let had_items = self.open.pop().expect("end_* without a matching begin_*");
        if had_items && depth <= self.expand {
            self.indent(depth - 1);
        }
        self.out.push(bracket);
        self
    }

    /// Open an object.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.begin('{')
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.end('}')
    }

    /// Open an array.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.begin('[')
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.end(']')
    }

    /// Write an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        push_quoted(&mut self.out, key);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    /// Write a string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.item();
        push_quoted(&mut self.out, s);
        self
    }

    /// Write an integer value (exact; no float detour).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.item();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Write a float value: shortest round-trip text when finite, the
    /// `"inf"` string sentinel otherwise.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.str("inf");
        }
        self.item();
        let _ = write!(self.out, "{v:?}");
        self
    }

    /// Write out what the writer holds so far and let it go: a long
    /// document streams to `out` in pieces, and [`Writer::finish`]
    /// returns only what followed the last drain.  The layout does not
    /// depend on what was drained, so the pieces concatenate to the
    /// bytes an undrained writer would finish with.
    pub fn drain_into(&mut self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        out.write_all(self.out.as_bytes())?;
        self.out.clear();
        Ok(())
    }

    /// The finished document.
    pub fn finish(self) -> String {
        assert!(
            self.open.is_empty() && !self.after_key,
            "unbalanced JSON document"
        );
        self.out
    }
}

/// Strict view of one parsed object, borrowing from its [`Value`].
///
/// Every decoder of an in-repo schema reads objects through this view, so
/// they all reject the same things with the same words: `duplicate
/// {what} key`, `{what} missing "k"`, `unsupported {what} schema` and —
/// from [`Fields::finish`] — `unknown {what} key`.
#[derive(Debug)]
#[must_use = "call finish() so unknown keys are rejected"]
pub struct Fields<'a> {
    what: &'a str,
    fields: &'a [(String, Value)],
    /// Bit `i` set: field `i` has been claimed.
    claimed: u64,
}

impl<'a> Fields<'a> {
    /// View `value` as a `what` object; a key that appears twice is an
    /// error.  (Claims are tracked in one machine word, which caps a
    /// strict object at 64 keys — several times the widest schema here.)
    pub fn new(value: &'a Value, what: &'a str) -> Result<Self, String> {
        let fields = value.as_obj(what)?;
        if fields.len() > u64::BITS as usize {
            return Err(format!("{what}: more than {} keys", u64::BITS));
        }
        for (i, (key, _)) in fields.iter().enumerate() {
            if fields[..i].iter().any(|(earlier, _)| earlier == key) {
                return Err(format!("duplicate {what} key {key:?}"));
            }
        }
        Ok(Fields {
            what,
            fields,
            claimed: 0,
        })
    }

    /// Claim an optional field.
    pub fn opt(&mut self, key: &str) -> Option<&'a Value> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        self.claimed |= 1 << i;
        Some(&self.fields[i].1)
    }

    /// Claim a required field.
    pub fn req(&mut self, key: &str) -> Result<&'a Value, String> {
        self.opt(key)
            .ok_or_else(|| format!("{} missing {key:?}", self.what))
    }

    /// Claim a required integer field.
    pub fn u64(&mut self, key: &str) -> Result<u64, String> {
        self.req(key)?.as_u64(key)
    }

    /// Claim a required integer field that must fit a `usize`.
    pub fn usize(&mut self, key: &str) -> Result<usize, String> {
        let v = self.u64(key)?;
        usize::try_from(v).map_err(|_| format!("{key}: {v} does not fit a usize"))
    }

    /// Claim a required float field (a number, or the `"inf"` sentinel).
    pub fn f64(&mut self, key: &str) -> Result<f64, String> {
        self.req(key)?.as_f64_or_inf(key)
    }

    /// Claim a required string field.
    pub fn str(&mut self, key: &str) -> Result<&'a str, String> {
        self.req(key)?.as_str(key)
    }

    /// Claim a required array field.
    pub fn arr(&mut self, key: &str) -> Result<&'a [Value], String> {
        self.req(key)?.as_arr(key)
    }

    /// Claim the required `"schema"` field and check it names `want`.
    pub fn schema(&mut self, want: &str) -> Result<(), String> {
        let got = self.str("schema")?;
        if got != want {
            return Err(format!("unsupported {} schema {got:?}", self.what));
        }
        Ok(())
    }

    /// Reject any key no accessor claimed.
    pub fn finish(self) -> Result<(), String> {
        match (0..self.fields.len()).find(|i| self.claimed >> i & 1 == 0) {
            Some(i) => Err(format!("unknown {} key {:?}", self.what, self.fields[i].0)),
            None => Ok(()),
        }
    }
}

/// Recursive-descent reader over the supported JSON subset, over a text
/// in memory ([`Parser::new`]) or a byte stream read a chunk at a time
/// ([`Parser::from_reader`]).  Error offsets count bytes from the start
/// of the document either way.
pub struct Parser<'a> {
    /// The bytes in hand: the whole text, or the latest chunk of a reader.
    buf: Cow<'a, [u8]>,
    /// Read position in `buf`.
    pos: usize,
    /// Document bytes before `buf`.
    base: usize,
    /// Where the next chunk comes from (`None` for a text).
    reader: Option<&'a mut dyn Read>,
}

/// Bytes a [`Parser::from_reader`] asks its reader for at a time.
const CHUNK: usize = 64 << 10;

impl<'a> Parser<'a> {
    /// A parser over `text`.
    pub fn new(text: &'a str) -> Self {
        Parser {
            buf: Cow::Borrowed(text.as_bytes()),
            pos: 0,
            base: 0,
            reader: None,
        }
    }

    /// A parser over the bytes `reader` yields, read in 64 KiB chunks and
    /// never held whole: with [`Parser::parse_streaming`], a long document
    /// decodes in memory bounded by one chunk and one member.  A read
    /// error ends the input where it happened (so the document fails to
    /// parse); a caller that must tell the two apart wraps its reader and
    /// keeps the error.  Bytes that are not UTF-8 are refused inside a
    /// string and cannot parse outside one, so a document that parses
    /// was UTF-8 throughout.
    pub fn from_reader(reader: &'a mut dyn Read) -> Self {
        Parser {
            buf: Cow::Owned(Vec::new()),
            pos: 0,
            base: 0,
            reader: Some(reader),
        }
    }

    /// Parse one complete value; trailing non-whitespace is an error.
    pub fn parse(mut self) -> Result<Value, String> {
        let v = self.value()?;
        self.end(v)
    }

    /// [`Parser::parse`] a document whose top-level object carries long
    /// arrays, without building them: each member of an array-valued
    /// top-level field named in `stream` is handed to `each(field,
    /// member)` in source order as soon as it is read, and the field stays
    /// in the returned object as an empty array.  A strict [`Fields`] view
    /// of the result therefore still sees every top-level key in place —
    /// duplicated, unknown or of the wrong type — while the reader holds
    /// one member at a time, however long the arrays are.  Any other
    /// document parses exactly as [`Parser::parse`] would.  On `Err` the
    /// members already handed out belong to a document that did not
    /// parse.
    pub fn parse_streaming(
        mut self,
        stream: &[&str],
        mut each: impl FnMut(&str, Value),
    ) -> Result<Value, String> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return self.parse();
        }
        let v = self.object_by(|p, key| {
            p.skip_ws();
            if p.peek() == Some(b'[') && stream.contains(&key) {
                p.elements(|member| each(key, member))?;
                Ok(Value::Arr(Vec::new()))
            } else {
                p.value()
            }
        })?;
        self.end(v)
    }

    /// The next byte, reading the next chunk once `buf` is used up.
    fn peek(&mut self) -> Option<u8> {
        if self.pos == self.buf.len() {
            self.refill();
        }
        self.buf.get(self.pos).copied()
    }

    /// Replace the used-up `buf` with the reader's next chunk (empty at
    /// the end of the input or on a read error; a text has no next
    /// chunk).
    fn refill(&mut self) {
        let Some(reader) = self.reader.as_mut() else {
            return;
        };
        self.base += self.buf.len();
        self.pos = 0;
        let buf = self.buf.to_mut();
        buf.resize(CHUNK, 0);
        let n = loop {
            match reader.read(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                read => break read.unwrap_or(0),
            }
        };
        buf.truncate(n);
    }

    /// Offset of the next byte in the document.
    fn at(&self) -> usize {
        self.base + self.pos
    }

    /// Accept `v` as the whole document: trailing non-whitespace is an
    /// error.
    fn end(mut self, v: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.peek().is_some() {
            return Err(format!("trailing data at byte {}", self.at()));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}",
                char::from(b),
                self.at()
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(c) => Err(format!(
                "unexpected {:?} at byte {}",
                char::from(c),
                self.at()
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.object_by(|p, _| p.value())
    }

    /// An object whose member values `member(parser, key)` reads.
    fn object_by(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<Value, String>,
    ) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let value = member(self, &key)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at())),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        self.elements(|v| items.push(v))?;
        Ok(Value::Arr(items))
    }

    /// Read an array, handing each member to `each` as it is read.
    fn elements(&mut self, mut each: impl FnMut(Value)) -> Result<(), String> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            each(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at())),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        // Collected as bytes: the delimiters are ASCII, which never occurs
        // inside a multi-byte sequence, so the source's UTF-8 passes
        // through whole.
        let mut out = Vec::new();
        loop {
            // Copy the run of plain bytes in hand in one go.
            let rest = &self.buf[self.pos..];
            let run = rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .unwrap_or(rest.len());
            out.extend_from_slice(&rest[..run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| format!("bad string: {e}"));
                }
                Some(b'\\') => {
                    let at = self.at();
                    self.pos += 1;
                    out.push(match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => c,
                        Some(b'n') => b'\n',
                        _ => return Err(format!("unsupported escape at byte {at}")),
                    });
                    self.pos += 1;
                }
                // The run reached the end of a chunk; the next one is in.
                Some(_) => {}
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at();
        let mut text = String::new();
        while let Some(c) = self
            .peek()
            .filter(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            text.push(char::from(c));
            self.pos += 1;
        }
        if text.is_empty() {
            return Err(format!("expected a number at byte {start}"));
        }
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

    /// A reader that hands out at most three bytes per read, so values
    /// and escapes straddle chunk boundaries.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(3);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_reader_parses_exactly_as_the_text_does() {
        for text in [
            r#"{ "a": [1, 2.5, "x\n\"y\\"], "b": { "c": 18446744073709551615 } }"#,
            "{\"a\": [{\"k\": -1e-3}, []], \"b\": \"\u{e9}t\u{e9}\"}\n",
            "{ \"a\": }",
            "[1 2]",
            "1 2",
            "\"abc",
            "\"a\\",
            "\"a\\q\"",
            "{ \"a\": true }",
            "{\"a\": [1, 2",
            "[1.2.3]",
            "",
        ] {
            let mut src = Trickle(text.as_bytes());
            let read = Parser::from_reader(&mut src).parse();
            assert_eq!(read, Parser::new(text).parse(), "{text:?}");
            let mut src = Trickle(text.as_bytes());
            let read = Parser::from_reader(&mut src).parse_streaming(&["a"], |_, _| {});
            let whole = Parser::new(text).parse_streaming(&["a"], |_, _| {});
            assert_eq!(read, whole, "{text:?}");
        }
        // Bytes that are not UTF-8 are refused inside a string.
        let mut src = Trickle(b"[\"\xff\"]");
        let err = Parser::from_reader(&mut src).parse().unwrap_err();
        assert!(err.contains("bad string"), "{err}");
    }

    #[test]
    fn streaming_hands_out_named_top_level_arrays_and_keeps_their_keys() {
        let text = r#"{"b": [{"x": 1}, [2]], "a": [3], "c": [4], "b": 5, "d": {"b": [6]}}"#;
        let mut seen = Vec::new();
        let v = Parser::new(text)
            .parse_streaming(&["a", "b"], |key, member| {
                seen.push((key.to_string(), member))
            })
            .unwrap();
        let whole = Parser::new(text).parse().unwrap();
        let member = |key: &str, i: usize| {
            (
                key.to_string(),
                whole.get(key).unwrap().as_arr(key).unwrap()[i].clone(),
            )
        };
        assert_eq!(seen, [member("b", 0), member("b", 1), member("a", 0)]);
        // Every key stays in place; a streamed array is left empty, and
        // only arrays of the top level stream.
        let fields = v.as_obj("doc").unwrap();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "c", "b", "d"]);
        assert_eq!(fields[0].1, Value::Arr(Vec::new()));
        assert_eq!(fields[2].1, *whole.get("c").unwrap());
        assert_eq!(fields[3].1, Value::Num("5".into()));
        assert_eq!(fields[4].1, *whole.get("d").unwrap());
        // The grammar is the same as `parse`'s.
        for text in [
            "{\"a\": [1, 2",
            "{\"a\": [1 2]}",
            "{\"a\": []} 1",
            "[1]",
            "7",
        ] {
            let streamed = Parser::new(text).parse_streaming(&["a"], |_, _| {});
            assert_eq!(streamed, Parser::new(text).parse(), "{text}");
        }
    }

    #[test]
    fn writer_nests_by_the_layout_depth() {
        let doc = |expand: usize| {
            let mut w = Writer::new(expand);
            w.begin_obj();
            w.key("a").begin_arr().u64(1).begin_obj().key("b").str("x");
            w.end_obj().end_arr();
            w.key("c").f64(2.5);
            w.end_obj();
            w.finish()
        };
        assert_eq!(doc(0), r#"{"a": [1, {"b": "x"}], "c": 2.5}"#);
        assert_eq!(doc(1), "{\n  \"a\": [1, {\"b\": \"x\"}],\n  \"c\": 2.5\n}");
        assert_eq!(
            doc(3),
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": \"x\"\n    }\n  ],\n  \"c\": 2.5\n}"
        );
        // Whatever the layout, the reader sees one document.
        let parsed = Parser::new(&doc(0)).parse().unwrap();
        assert_eq!(Parser::new(&doc(1)).parse().unwrap(), parsed);
        assert_eq!(Parser::new(&doc(3)).parse().unwrap(), parsed);
    }

    #[test]
    fn a_drained_writer_streams_the_same_bytes() {
        for depth in [0, 1, 2, 3] {
            let (mut whole, mut drained) = (Writer::new(depth), Writer::new(depth));
            let mut streamed = Vec::new();
            for w in [&mut whole, &mut drained] {
                w.begin_obj().key("rows").begin_arr();
            }
            for i in 0..3u64 {
                for w in [&mut whole, &mut drained] {
                    w.begin_obj().key("i").u64(i).key("x").f64(0.5).end_obj();
                }
                drained.drain_into(&mut streamed).unwrap();
            }
            for w in [&mut whole, &mut drained] {
                w.end_arr().end_obj();
            }
            streamed.extend_from_slice(drained.finish().as_bytes());
            assert_eq!(streamed, whole.finish().into_bytes(), "depth {depth}");
        }
    }

    #[test]
    fn writer_keeps_empty_containers_closed_at_both_layouts() {
        for expand in [0, 4] {
            let mut w = Writer::new(expand);
            w.begin_arr().begin_obj().end_obj().begin_arr().end_arr();
            w.end_arr();
            let text = w.finish();
            assert!(text.contains("{}") && text.contains("[]"), "{text}");
            let v = Parser::new(&text).parse().unwrap();
            assert_eq!(v, Value::Arr(vec![Value::Obj(vec![]), Value::Arr(vec![])]));
        }
        let mut w = Writer::new(1);
        w.begin_obj().end_obj();
        assert_eq!(w.finish(), "{}");
    }

    #[test]
    fn writer_numbers_round_trip_exactly() {
        // 0.1 + 0.2 needs all 17 significant digits; the subnormal is the
        // worst case for shortest-round-trip formatting.
        let floats = [0.1 + 0.2, 4.9e-324, -1.7976931348623157e308, 0.0, 1e21];
        let mut w = Writer::new(0);
        w.begin_arr().u64(u64::MAX).u64(0);
        for v in floats {
            w.f64(v);
        }
        w.end_arr();
        let text = w.finish();
        assert!(text.contains("0.30000000000000004"), "{text}");
        let v = Parser::new(&text).parse().unwrap();
        let items = v.as_arr("doc").unwrap();
        assert_eq!(items[0].as_u64("max").unwrap(), u64::MAX);
        assert_eq!(items[1].as_u64("zero").unwrap(), 0);
        for (item, want) in items[2..].iter().zip(floats) {
            assert_eq!(item.as_f64("f").unwrap().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn writer_never_emits_a_bare_non_finite() {
        let mut w = Writer::new(0);
        w.begin_arr();
        w.f64(f64::INFINITY).f64(f64::NEG_INFINITY).f64(f64::NAN);
        w.end_arr();
        let text = w.finish();
        assert_eq!(text, r#"["inf", "inf", "inf"]"#);
        let v = Parser::new(&text).parse().unwrap();
        for item in v.as_arr("doc").unwrap() {
            assert_eq!(item.as_f64_or_inf("f").unwrap(), f64::INFINITY);
            assert!(item.as_f64("f").is_err());
        }
        let other = Value::Str("nan".into());
        assert!(other.as_f64_or_inf("f").is_err());
    }

    #[test]
    fn writer_strings_and_keys_round_trip_through_the_reader() {
        for text in [
            "say \"hi\"",
            "back\\slash\\n",
            "two\nlines",
            "tenant-é ≡ 行",
            "",
        ] {
            let mut w = Writer::new(1);
            w.begin_obj().key(text).str(text).end_obj();
            let v = Parser::new(&w.finish()).parse().unwrap();
            let fields = v.as_obj("doc").unwrap();
            assert_eq!(fields[0].0, text);
            assert_eq!(fields[0].1.as_str("s").unwrap(), text);
        }
    }

    fn parse(text: &str) -> Value {
        Parser::new(text).parse().unwrap()
    }

    #[test]
    fn fields_claim_typed_values_and_finish_clean() {
        let v = parse(
            r#"{"schema": "s-v1", "n": 7, "x": 1.5, "t": "inf", "name": "a", "items": [1], "extra": 2}"#,
        );
        let mut f = Fields::new(&v, "thing").unwrap();
        f.schema("s-v1").unwrap();
        assert_eq!(f.u64("n").unwrap(), 7);
        assert_eq!(f.f64("x").unwrap(), 1.5);
        assert_eq!(f.f64("t").unwrap(), f64::INFINITY);
        assert_eq!(f.str("name").unwrap(), "a");
        assert_eq!(f.arr("items").unwrap().len(), 1);
        assert!(f.opt("absent").is_none());
        assert_eq!(f.opt("extra").unwrap().as_u64("extra").unwrap(), 2);
        f.finish().unwrap();
    }

    #[test]
    fn fields_speak_one_error_vocabulary() {
        let v = parse(r#"{"schema": "s-v2", "n": 7, "typo": 1}"#);
        let mut f = Fields::new(&v, "thing").unwrap();
        assert_eq!(
            f.schema("s-v1").unwrap_err(),
            "unsupported thing schema \"s-v2\""
        );
        assert_eq!(f.usize("n").unwrap(), 7);
        assert_eq!(f.u64("m").unwrap_err(), "thing missing \"m\"");
        assert!(f.str("n").unwrap_err().contains("expected a string"));
        assert_eq!(f.finish().unwrap_err(), "unknown thing key \"typo\"");

        let dup = parse(r#"{"n": 1, "m": 2, "n": 1}"#);
        assert_eq!(
            Fields::new(&dup, "thing").unwrap_err(),
            "duplicate thing key \"n\""
        );
        assert!(Fields::new(&parse("[1]"), "thing")
            .unwrap_err()
            .contains("expected an object"));
        let empty = parse("{}");
        let mut f = Fields::new(&empty, "thing").unwrap();
        assert_eq!(f.schema("s-v1").unwrap_err(), "thing missing \"schema\"");
    }

    #[test]
    fn fields_cap_an_object_at_one_claim_word() {
        let wide = |n: usize| {
            let mut w = Writer::new(0);
            w.begin_obj();
            for i in 0..n {
                w.key(&format!("k{i}")).u64(i as u64);
            }
            w.end_obj();
            parse(&w.finish())
        };
        let v = wide(64);
        let mut f = Fields::new(&v, "wide").unwrap();
        for i in 0..64 {
            assert_eq!(f.u64(&format!("k{i}")).unwrap(), i);
        }
        f.finish().unwrap();
        assert!(Fields::new(&wide(65), "wide")
            .unwrap_err()
            .contains("more than 64 keys"));
    }
}
