//! A minimal JSON writer — just enough for the trace sinks and the bench
//! harness to emit machine-readable records without an external
//! serialization crate (the build environment is offline).

use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// An incremental `{...}` builder.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    empty: bool,
}

impl JsonObject {
    /// Opens an object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        let _ = write!(self.buf, "\"{}\":", escape(k));
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    /// Adds a signed-integer field.
    pub fn i64(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds an unsigned-integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field (JSON has no NaN/Inf; those become null).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value (object, array, ...) verbatim.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders an array of pre-rendered JSON values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut buf = String::from("[");
    for (i, it) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&it);
    }
    buf.push(']');
    buf
}

/// Renders an array of integers.
pub fn int_array<T: Into<i64> + Copy>(items: &[T]) -> String {
    array(items.iter().map(|&v| v.into().to_string()))
}

/// A parsed JSON value — the reader half of this module, added so
/// `pdgc report` can diff metrics snapshots without an external crate.
///
/// Objects keep their fields in document order (a `Vec`, not a map):
/// snapshots are written by [`JsonObject`] with a stable field order, and
/// preserving it keeps diffs deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish int from float).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

/// Maximum container nesting depth [`Json::parse`] accepts.
///
/// The parser is recursive-descent, so unbounded `[[[…]]]` input would
/// overflow the stack; anything this deep is hostile or broken, never a
/// metrics snapshot or serve request, so it is a parse *error* (with the
/// byte offset) rather than a crash. 512 levels cost at most a few
/// hundred KB of stack — far inside every platform's default.
pub const MAX_DEPTH: usize = 512;

impl Json {
    /// Parses a complete JSON document. Trailing non-whitespace is an
    /// error, as is any malformed construct; the message includes the
    /// byte offset. Containers nested deeper than [`MAX_DEPTH`] are
    /// rejected the same way — untrusted input cannot blow the stack.
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
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup by key (`None` for non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields in document order.
    pub fn fields(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// `json["key"]` sugar; missing keys index as [`Json::Null`] so lookups
/// chain without `Option` plumbing.
impl std::ops::Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        const NULL: Json = Json::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting depth, capped at [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
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

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {}", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].first() != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(format!(
                                        "lone high surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(format!(
                                        "invalid low surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                let combined =
                                    0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid code point at byte {}", self.pos)
                            })?);
                        }
                        other => {
                            return Err(format!(
                                "bad escape '\\{}' at byte {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash
                    // at once. Both are ASCII, so the run ends on a
                    // character boundary of the `&str` input and is valid
                    // UTF-8 by construction.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let cp = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.leave();
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
                    self.leave();
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.leave();
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.leave();
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn object_builder() {
        let s = JsonObject::new()
            .str("name", "x")
            .i64("n", -3)
            .bool("ok", true)
            .raw("xs", &int_array(&[1i32, 2, 3]))
            .finish();
        assert_eq!(s, "{\"name\":\"x\",\"n\":-3,\"ok\":true,\"xs\":[1,2,3]}");
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(array(Vec::<String>::new()), "[]");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let s = JsonObject::new().f64("x", f64::NAN).f64("y", 1.5).finish();
        assert_eq!(s, "{\"x\":null,\"y\":1.5}");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1.5e2").unwrap().as_f64(), Some(-150.0));
        assert_eq!(
            Json::parse("\"hi\"").unwrap().as_str(),
            Some("hi")
        );
    }

    #[test]
    fn parse_containers_and_lookup() {
        let v = Json::parse(r#"{"a":[1,2,3],"b":{"c":"x"},"d":null}"#).unwrap();
        assert_eq!(v["a"].as_arr().unwrap().len(), 3);
        assert_eq!(v["a"].as_arr().unwrap()[1].as_u64(), Some(2));
        assert_eq!(v["b"]["c"].as_str(), Some("x"));
        assert_eq!(v["d"], Json::Null);
        assert_eq!(v["missing"], Json::Null);
        assert_eq!(v.fields().unwrap().len(), 3);
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn parse_string_escapes() {
        let v = Json::parse(r#""a\"b\\c\nd\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA\u{1f600}"));
    }

    #[test]
    fn long_strings_with_multibyte_runs_decode_whole() {
        let text = "é→x".repeat(2000) + "\n\"q\"\t" + &"ß".repeat(3000);
        let v = Json::parse(&format!("[\"{}\",\"\"]", escape(&text))).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some(text.as_str()));
        assert_eq!(items[1].as_str(), Some(""));
        assert!(Json::parse("\"unterminated é").is_err());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("truefalse").is_err());
        assert!(Json::parse("\"\\ud800\"").is_err()); // lone surrogate
        assert!(Json::parse("1 2").is_err()); // trailing data
    }

    #[test]
    fn deeply_nested_input_is_an_error_not_a_crash() {
        // A ~100k-deep array: before the depth limit this overflowed the
        // recursive-descent parser's stack. It must come back as a parse
        // error naming the offending byte.
        let depth = 100_000;
        let mut hostile = String::with_capacity(2 * depth);
        for _ in 0..depth {
            hostile.push('[');
        }
        for _ in 0..depth {
            hostile.push(']');
        }
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting deeper than"), "unexpected error: {err}");
        assert!(err.contains(&format!("{MAX_DEPTH}")), "no limit in: {err}");
        assert!(err.contains("byte"), "no offset in: {err}");

        // Same for objects.
        let mut objs = String::new();
        for _ in 0..depth {
            objs.push_str("{\"a\":");
        }
        objs.push('1');
        for _ in 0..depth {
            objs.push('}');
        }
        assert!(Json::parse(&objs).unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn nesting_at_the_limit_still_parses() {
        let mut ok = String::new();
        for _ in 0..MAX_DEPTH {
            ok.push('[');
        }
        for _ in 0..MAX_DEPTH {
            ok.push(']');
        }
        assert!(Json::parse(&ok).is_ok());
        // One more level tips it over.
        let over = format!("[{ok}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn depth_resets_between_siblings() {
        // Depth is nesting depth, not total container count: many shallow
        // siblings must not accumulate toward the limit.
        let wide = format!("[{}]", vec!["[]"; 2 * MAX_DEPTH].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn writer_reader_round_trip() {
        let s = JsonObject::new()
            .str("name", "x\"y")
            .u64("n", u64::from(u32::MAX))
            .f64("f", 2.25)
            .bool("ok", false)
            .raw("xs", &int_array(&[1i32, -2, 3]))
            .finish();
        let v = Json::parse(&s).unwrap();
        assert_eq!(v["name"].as_str(), Some("x\"y"));
        assert_eq!(v["n"].as_u64(), Some(u64::from(u32::MAX)));
        assert_eq!(v["f"].as_f64(), Some(2.25));
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["xs"].as_arr().unwrap()[1].as_f64(), Some(-2.0));
    }
}
