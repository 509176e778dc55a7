//! The one JSON writer and reader of the workspace, std-only.
//!
//! Every record the product emits is written by [`object`] / [`array()`]:
//! a streaming builder over one `String` that builds no value tree.
//! Strings are escaped one way; finite floats print with `{}` and
//! non-finite ones as `null`. The reader is one validating scanner:
//! [`members`] returns an object's top-level members, checking every
//! nested value it skips, and [`unescape`] decodes a string value.

use std::fmt::Write as _;

/// Render one JSON object whose members `body` writes.
pub fn object(body: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    Object::write(&mut out, body);
    out
}

/// Render one JSON array whose elements `body` writes.
pub fn array(body: impl FnOnce(&mut Array<'_>)) -> String {
    let mut out = String::new();
    Array::write(&mut out, body);
    out
}

/// An object being written: each call appends one `"key":value` member
/// (a list of members, so it reuses [`Array`]'s separators).
pub struct Object<'a>(Array<'a>);

impl Object<'_> {
    fn write(out: &mut String, body: impl FnOnce(&mut Object<'_>)) {
        out.push('{');
        body(&mut Object(Array { out, first: true }));
        out.push('}');
    }

    fn key(&mut self, key: &str) -> &mut String {
        push_str(self.0.next(), key);
        self.0.out.push(':');
        self.0.out
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) {
        push_str(self.key(key), value);
    }

    fn display(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = write!(self.key(key), "{value}");
    }

    /// An integer member.
    pub fn u64(&mut self, key: &str, value: u64) {
        self.display(key, value);
    }

    /// A `true` / `false` member.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.display(key, value);
    }

    /// A float member: `{}` when finite, `null` when not finite or absent.
    pub fn f64(&mut self, key: &str, value: impl Into<Option<f64>>) {
        match value.into().filter(|v| v.is_finite()) {
            Some(v) => self.display(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// A member whose value is JSON rendered elsewhere, inlined verbatim.
    pub fn raw(&mut self, key: &str, json: &str) {
        self.key(key).push_str(json);
    }

    /// A nested object member whose members `body` writes.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Object<'_>)) {
        Object::write(self.key(key), body);
    }

    /// A nested array member whose elements `body` writes.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut Array<'_>)) {
        Array::write(self.key(key), body);
    }
}

/// An array being written: each call appends one element.
pub struct Array<'a> {
    out: &'a mut String,
    first: bool,
}

impl Array<'_> {
    fn write(out: &mut String, body: impl FnOnce(&mut Array<'_>)) {
        out.push('[');
        body(&mut Array { out, first: true });
        out.push(']');
    }

    fn next(&mut self) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out
    }

    /// A string element.
    pub fn str(&mut self, value: &str) {
        push_str(self.next(), value);
    }

    /// An element that is JSON rendered elsewhere, inlined verbatim.
    pub fn raw(&mut self, json: &str) {
        self.next().push_str(json);
    }

    /// An object element whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Object<'_>)) {
        Object::write(self.next(), body);
    }
}

/// Append `s` quoted, with `"`, `\` and control characters escaped.
fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The top-level members of the JSON object `text`, in order, as
/// `(key, raw value text)`; `None` unless `text` is exactly one
/// well-formed object (surrounding whitespace allowed).
pub fn members(text: &str) -> Option<Vec<(String, &str)>> {
    let mut scan = Scanner { text, at: 0 };
    let mut members = Vec::new();
    scan.object(0, &mut |key, value| members.push((key, value)))?;
    scan.ws();
    (scan.at == text.len()).then_some(members)
}

/// The text of the JSON string literal `raw` (quotes included), escapes
/// decoded; `None` unless `raw` is exactly one well-formed string.
pub fn unescape(raw: &str) -> Option<String> {
    let mut scan = Scanner { text: raw, at: 0 };
    let text = scan.string()?;
    (scan.at == raw.len()).then_some(text)
}

/// Nesting deeper than this is refused rather than recursed into.
const MAX_DEPTH: usize = 128;

/// A validating cursor: each method consumes one token or value, or
/// returns `None` (or `false`) at the first malformed byte.
struct Scanner<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Scanner<'a> {
    fn ws(&mut self) {
        let rest = &self.text[self.at..];
        self.at += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    /// Consume one byte of `set` if it is next.
    fn skip(&mut self, set: &[u8]) -> bool {
        let hit = self
            .text
            .as_bytes()
            .get(self.at)
            .is_some_and(|b| set.contains(b));
        self.at += usize::from(hit);
        hit
    }

    /// Skip whitespace, then `b`.
    fn token(&mut self, b: u8) -> Option<()> {
        self.ws();
        self.skip(&[b]).then_some(())
    }

    /// One value of any kind; returns its text.
    fn value(&mut self, depth: usize) -> Option<&'a str> {
        self.ws();
        let start = self.at;
        let rest = &self.text[start..];
        if let Some(word) = ["true", "false", "null"]
            .iter()
            .find(|w| rest.starts_with(*w))
        {
            self.at += word.len();
        } else if rest.starts_with('"') {
            self.string()?;
        } else if depth >= MAX_DEPTH {
            return None;
        } else if rest.starts_with('{') {
            self.object(depth + 1, &mut |_, _| {})?;
        } else if rest.starts_with('[') {
            self.list(b'[', b']', |s| s.value(depth + 1).map(drop))?;
        } else {
            self.number()?;
        }
        Some(&self.text[start..self.at])
    }

    /// `{ "key": value, … }`, handing each member to `member`.
    fn object(&mut self, depth: usize, member: &mut dyn FnMut(String, &'a str)) -> Option<()> {
        self.list(b'{', b'}', |s| {
            s.ws();
            let key = s.string()?;
            s.token(b':')?;
            member(key, s.value(depth)?);
            Some(())
        })
    }

    /// `open item, item, … close`, possibly empty.
    fn list(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Option<()>,
    ) -> Option<()> {
        self.token(open)?;
        if self.token(close).is_some() {
            return Some(());
        }
        loop {
            item(self)?;
            if self.token(b',').is_none() {
                return self.token(close);
            }
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Option<()> {
        self.skip(b"-");
        if !self.skip(b"0") {
            self.digits()?;
        }
        if self.skip(b".") {
            self.digits()?;
        }
        if self.skip(b"eE") {
            self.skip(b"+-");
            self.digits()?;
        }
        Some(())
    }

    /// One or more digits.
    fn digits(&mut self) -> Option<()> {
        let start = self.at;
        while self.skip(b"0123456789") {}
        (self.at > start).then_some(())
    }

    /// A string literal, decoded.
    fn string(&mut self) -> Option<String> {
        let mut chars = self.text[self.at..].strip_prefix('"')?.chars();
        let mut out = String::new();
        loop {
            out.push(match chars.next()? {
                '"' => break,
                '\\' => match chars.next()? {
                    'b' => '\u{8}',
                    'f' => '\u{c}',
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    'u' => {
                        let mut code = hex4(&mut chars)?;
                        if (0xD800..0xDC00).contains(&code) && chars.as_str().starts_with("\\u") {
                            chars.nth(1);
                            let low = hex4(&mut chars)?
                                .checked_sub(0xDC00)
                                .filter(|&l| l < 0x400)?;
                            code = 0x10000 + ((code - 0xD800) << 10) + low;
                        }
                        char::from_u32(code)?
                    }
                    c @ ('"' | '\\' | '/') => c,
                    _ => return None,
                },
                c if c < ' ' => return None,
                c => c,
            });
        }
        self.at = self.text.len() - chars.as_str().len();
        Some(out)
    }
}

/// Four hex digits of a `\u` escape.
fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    let hex = chars.as_str().get(..4)?;
    chars.nth(3);
    hex.bytes().all(|b| b.is_ascii_hexdigit()).then_some(())?;
    u32::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(text: &str) -> Vec<(String, String)> {
        members(text)
            .unwrap_or_else(|| panic!("not a JSON object: {text}"))
            .into_iter()
            .map(|(k, v)| (k, v.to_owned()))
            .collect()
    }

    #[test]
    fn json_escapes_specials() {
        let json = object(|o| o.str("k", "a\"b\\c\nd\r\t\u{1}é"));
        assert_eq!(json, "{\"k\":\"a\\\"b\\\\c\\nd\\r\\t\\u0001é\"}");
        let raw = &read(&json)[0].1;
        assert_eq!(unescape(raw).as_deref(), Some("a\"b\\c\nd\r\t\u{1}é"));
    }

    #[test]
    fn writer_nests_and_follows_the_float_policy() {
        let json = object(|o| {
            o.str("s", "x");
            o.u64("n", 7);
            o.bool("b", false);
            o.f64("f", 6.0);
            o.f64("g", 1234.5);
            o.f64("inf", f64::INFINITY);
            o.f64("nan", f64::NAN);
            o.f64("none", None);
            o.raw("z", "null");
            o.raw("r", "{\"a\":1}");
            o.object("o", |_| {});
            o.array("a", |a| {
                a.str("q");
                a.raw("2");
                a.object(|o| o.u64("k", 1));
            });
        });
        assert_eq!(
            json,
            "{\"s\":\"x\",\"n\":7,\"b\":false,\"f\":6,\"g\":1234.5,\"inf\":null,\
             \"nan\":null,\"none\":null,\"z\":null,\"r\":{\"a\":1},\"o\":{},\
             \"a\":[\"q\",2,{\"k\":1}]}"
        );
        assert_eq!(object(|_| {}), "{}");
        assert_eq!(array(|_| {}), "[]");
        assert_eq!(read(&json).len(), 12);
    }

    /// `linrec top`'s fields: the nested `decision.actual` object must not
    /// shadow the top-level `actual`.
    #[test]
    fn reader_returns_top_level_members_only() {
        let line = "{\"seq\":3,\"unix_ms\":1,\"kind\":\"plan\",\"view\":\"t\\\"c\",\
                    \"shape\":\"Direct\",\"estimate\":null,\"actual\":5,\"nanos\":9,\
                    \"decision\":{\"estimate\":2.5,\"actual\":{\"tuples\":1}}}";
        let m = read(line);
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "seq", "unix_ms", "kind", "view", "shape", "estimate", "actual", "nanos",
                "decision"
            ]
        );
        let field = |key: &str| m.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        assert_eq!(field("actual"), Some("5"));
        assert_eq!(field("estimate"), Some("null"));
        assert_eq!(field("seq").and_then(|v| v.parse::<f64>().ok()), Some(3.0));
        assert_eq!(field("view").and_then(unescape).as_deref(), Some("t\"c"));
        assert_eq!(
            field("decision"),
            Some("{\"estimate\":2.5,\"actual\":{\"tuples\":1}}")
        );
        let spaced = " { \"a\" : [ 1 , -2.5e+3 , true ] , \"b\" : { } } \n";
        assert_eq!(
            read(spaced),
            [
                ("a".to_owned(), "[ 1 , -2.5e+3 , true ]".to_owned()),
                ("b".to_owned(), "{ }".to_owned())
            ]
        );
    }

    #[test]
    fn reader_refuses_malformed_text() {
        let deep = format!("{{\"a\":{}{}}}", "[".repeat(200), "]".repeat(200));
        for bad in [
            "",
            "[]",
            "{",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "{\"a\":01}",
            "{\"a\":1.}",
            "{\"a\":-}",
            "{\"a\":1e}",
            "{\"a\":tru}",
            "{\"a\":\"x}",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\u12g4\"}",
            "{\"a\":\"tab\there\"}",
            "{\"a\":[1 2]}",
            "{\"a\":{\"b\":}}",
            "{\"a\":1} x",
            "{\"a\":1}{}",
            deep.as_str(),
        ] {
            assert!(members(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unescape_decodes_escapes_and_refuses_what_is_not_one_string() {
        assert_eq!(
            unescape("\"\\u00e9\\/\\b\\f\\ud83d\\ude00\"").as_deref(),
            Some("é/\u{8}\u{c}😀")
        );
        for bad in [
            "x",
            "\"a",
            "\"a\" ",
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
        ] {
            assert!(unescape(bad).is_none(), "accepted {bad:?}");
        }
    }
}
