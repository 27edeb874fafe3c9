//! Dependency-free JSON parsing — the read side of the campaign wire
//! format.
//!
//! The workspace is offline (no serde), so [`crate::json::JsonWriter`]
//! emits JSON and this module parses it back. Every dispatcher frame is
//! JSON: a worker serializes its
//! [`CampaignShard`](crate::campaign::CampaignShard) into a `shard_done`
//! frame and the coordinator reassembles it through this module, so parse
//! fidelity is a correctness requirement, not a tooling convenience.
//!
//! The parser is a strict recursive-descent over a complete document:
//! trailing garbage, malformed escapes and lone surrogates are loud
//! [`JsonError`]s with byte offsets. All JSON string escapes are decoded,
//! including `\uXXXX` with UTF-16 surrogate-pair handling (the writer
//! emits `\u` only for control characters, but wire documents may come
//! from any producer). Numbers parse as `f64`: exact for every integer
//! counter below 2^53, which covers every counter the simulator emits by
//! a wide margin.
//!
//! For mapping parsed values onto typed structures
//! ([`Report::from_json`](crate::report::Report::from_json),
//! [`CampaignShard::from_json`](crate::campaign::CampaignShard::from_json))
//! the `req_*` accessors return [`WireError`]s that name the missing or
//! mistyped path. The scenario DSL ([`crate::scenario`]) parses through
//! this module too, layering its own unknown-field and range validation
//! on top of the same trust boundary.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; integers are exact below 2^53).
    Number(f64),
    /// A string, with all escapes (including `\uXXXX`) resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Key order is not preserved (no consumer needs it).
    Object(BTreeMap<String, JsonValue>),
}

/// Why parsing failed: byte offset and message.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A structurally valid JSON document that doesn't decode to the expected
/// typed shape (missing key, wrong type, out-of-range number).
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// What was expected and where (a dotted path when available).
    pub message: String,
}

impl WireError {
    /// A wire error with `message`.
    pub fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire format error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError::new(e.to_string())
    }
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Walks a dot-separated path of object keys (`"baseline.total_events"`).
    /// Returns `None` if any component is missing or not an object.
    pub fn get(&self, path: &str) -> Option<&JsonValue> {
        let mut cur = self;
        for key in path.split('.') {
            match cur {
                JsonValue::Object(map) => cur = map.get(key)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative whole
    /// number small enough that the `f64` representation is exact.
    /// The bound is exclusive: at 2^53 and above, neighboring integers
    /// collapse onto the same `f64`, so a value there may already have
    /// been silently rounded during parsing — better a loud `None` than
    /// an off-by-one counter.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            JsonValue::Number(n) if *n >= 0.0 && *n < EXACT && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// [`get`](JsonValue::get) that names the missing path in its error.
    pub fn req(&self, path: &str) -> Result<&JsonValue, WireError> {
        self.get(path)
            .ok_or_else(|| WireError::new(format!("missing `{path}`")))
    }

    /// A required unsigned-integer field at `path`.
    pub fn req_u64(&self, path: &str) -> Result<u64, WireError> {
        self.req(path)?
            .as_u64()
            .ok_or_else(|| WireError::new(format!("`{path}` is not an unsigned integer")))
    }

    /// A required number field at `path`.
    pub fn req_f64(&self, path: &str) -> Result<f64, WireError> {
        self.req(path)?
            .as_f64()
            .ok_or_else(|| WireError::new(format!("`{path}` is not a number")))
    }

    /// A required string field at `path`.
    pub fn req_str(&self, path: &str) -> Result<&str, WireError> {
        self.req(path)?
            .as_str()
            .ok_or_else(|| WireError::new(format!("`{path}` is not a string")))
    }

    /// A required array field at `path`.
    pub fn req_array(&self, path: &str) -> Result<&[JsonValue], WireError> {
        self.req(path)?
            .as_array()
            .ok_or_else(|| WireError::new(format!("`{path}` is not an array")))
    }

    /// A required boolean field at `path`.
    pub fn req_bool(&self, path: &str) -> Result<bool, WireError> {
        self.req(path)?
            .as_bool()
            .ok_or_else(|| WireError::new(format!("`{path}` is not a boolean")))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Maximum container nesting the parser accepts. Our documents nest a
/// handful of levels; recursion beyond this bound is corrupt (or
/// adversarial) wire input, and the parser is a trust boundary — it must
/// answer with a [`JsonError`], never a stack overflow.
const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.descend()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// One container level deeper; errors past [`MAX_DEPTH`] so hostile
    /// nesting cannot overflow the parse recursion.
    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than the wire format allows"));
        }
        Ok(())
    }

    /// Four hex digits of a `\uXXXX` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected four hex digits after \\u")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Decodes one `\uXXXX` escape (the `\u` is already consumed),
    /// pairing UTF-16 surrogates: a high surrogate must be followed by
    /// `\uXXXX` holding the low half; unpaired halves are errors.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        match hi {
            0xD800..=0xDBFF => {
                if self.peek() != Some(b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
                    return Err(self.err("high surrogate not followed by \\u escape"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.err("high surrogate followed by a non-low-surrogate"));
                }
                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"))
            }
            0xDC00..=0xDFFF => Err(self.err("lone low surrogate")),
            cp => char::from_u32(cp).ok_or_else(|| self.err("invalid \\u code point")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so byte
                    // boundaries are valid).
                    let start = self.pos;
                    let mut end = self.pos + 1;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse("-1.5e2").unwrap(),
            JsonValue::Number(-150.0)
        );
        assert_eq!(
            JsonValue::parse(r#""a\nb""#).unwrap(),
            JsonValue::String("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures_and_paths() {
        let doc = JsonValue::parse(
            r#"{"baseline":{"total_events":123,"cells":[{"w":"x"},{"w":"y"}]},"ratio":1.25}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("baseline.total_events").unwrap().as_f64(),
            Some(123.0)
        );
        assert_eq!(doc.get("ratio").unwrap().as_f64(), Some(1.25));
        let cells = doc.get("baseline.cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].get("w").unwrap().as_str(), Some("y"));
        assert!(doc.get("missing.path").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("12 34").is_err());
        assert!(JsonValue::parse(r#"{"a" 1}"#).is_err());
        assert!(JsonValue::parse("tru").is_err());
    }

    #[test]
    fn decodes_unicode_escapes() {
        assert_eq!(
            JsonValue::parse(r#""\u0041\u00e9\u6f22""#).unwrap(),
            JsonValue::String("A\u{e9}\u{6f22}".into())
        );
        // Control characters — what the writer actually emits as \u.
        assert_eq!(
            JsonValue::parse(r#""\u0000\u001f""#).unwrap(),
            JsonValue::String("\u{0}\u{1f}".into())
        );
        // Uppercase hex is accepted.
        assert_eq!(
            JsonValue::parse(r#""\u00E9""#).unwrap(),
            JsonValue::String("\u{e9}".into())
        );
    }

    #[test]
    fn decodes_surrogate_pairs() {
        // U+1F600 GRINNING FACE as the canonical UTF-16 escape pair.
        assert_eq!(
            JsonValue::parse(r#""\ud83d\ude00""#).unwrap(),
            JsonValue::String("\u{1f600}".into())
        );
        // Highest astral code point.
        assert_eq!(
            JsonValue::parse(r#""\udbff\udfff""#).unwrap(),
            JsonValue::String("\u{10FFFF}".into())
        );
    }

    #[test]
    fn rejects_broken_surrogates_and_escapes() {
        // Lone high surrogate (end of string, or followed by a normal char).
        assert!(JsonValue::parse(r#""\ud83d""#).is_err());
        assert!(JsonValue::parse(r#""\ud83dx""#).is_err());
        // High surrogate followed by a non-surrogate escape.
        assert!(JsonValue::parse(r#""\ud83dA""#).is_err());
        // Lone low surrogate.
        assert!(JsonValue::parse(r#""\ude00""#).is_err());
        // Bad hex.
        assert!(JsonValue::parse(r#""\u00g1""#).is_err());
        assert!(JsonValue::parse(r#""\u00""#).is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let deep_ok = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(JsonValue::parse(&deep_ok).is_ok());
        let bomb = "[".repeat(100_000);
        let err = JsonValue::parse(&bomb).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let obj_bomb = "{\"k\":".repeat(100_000);
        assert!(JsonValue::parse(&obj_bomb).is_err());
    }

    #[test]
    fn u64_accessor_is_exact_or_nothing() {
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(JsonValue::parse("-1").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("\"42\"").unwrap().as_u64(), None);
        // The largest exactly-representable integer is accepted; from
        // 2^53 up, 9007199254740993 would silently parse as …992, so the
        // whole region is rejected rather than risk off-by-one counters.
        assert_eq!(
            JsonValue::parse("9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
        assert_eq!(JsonValue::parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("9007199254740993").unwrap().as_u64(), None);
    }

    #[test]
    fn req_accessors_name_the_path() {
        let doc = JsonValue::parse(r#"{"a":{"b":1},"s":"x"}"#).unwrap();
        assert_eq!(doc.req_u64("a.b").unwrap(), 1);
        assert_eq!(doc.req_str("s").unwrap(), "x");
        let err = doc.req_u64("a.missing").unwrap_err();
        assert!(err.to_string().contains("a.missing"), "{err}");
        let err = doc.req_u64("s").unwrap_err();
        assert!(err.to_string().contains("unsigned"), "{err}");
    }

    #[test]
    fn round_trips_a_writer_document() {
        // The exact producer this reader exists for.
        let mut w = crate::json::JsonWriter::new();
        w.begin_object();
        w.key("label");
        w.string("seed \"quoted\"");
        w.key("events_per_sec");
        w.float(7.49e6);
        w.key("cells");
        w.begin_array();
        w.begin_object();
        w.key("n");
        w.number_u64(42);
        w.end_object();
        w.end_array();
        w.end_object();
        let doc = JsonValue::parse(&w.finish()).unwrap();
        assert_eq!(doc.get("label").unwrap().as_str(), Some("seed \"quoted\""));
        assert_eq!(doc.get("events_per_sec").unwrap().as_f64(), Some(7.49e6));
        assert_eq!(
            doc.get("cells").unwrap().as_array().unwrap()[0]
                .get("n")
                .unwrap()
                .as_f64(),
            Some(42.0)
        );
    }
}
