//! Byte-exact wire codec for telemetry types.
//!
//! The bench harness persists finished [`Report`]s into an on-disk run
//! ledger and replays them on cache hits. A replayed report must render
//! **byte-identical** tables, Prometheus expositions and JSONL dumps, so
//! this codec round-trips every value exactly:
//!
//! * `f64` is written as the lowercase hex of [`f64::to_bits`] — no
//!   decimal formatting is involved, so every bit pattern (including
//!   negative zero and the exact shortest-round-trip inputs) survives;
//! * integers are written in decimal; `usize` travels as `u64`;
//! * enums travel as their dense indices;
//! * strings are percent-escaped so the stream stays token-separable.
//!
//! The format is a flat whitespace-separated token stream with a
//! versioned header ([`WIRE_HEADER`]). Decoding is total: any malformed
//! input yields a [`WireError`], never a panic, because ledger blobs may
//! be truncated or corrupted on disk and a corrupt cache entry must
//! degrade to a cache miss.
//!
//! Record, indexed-enum and event-table codecs are generated from the
//! type's own declaration by [`wire_record!`](crate::wire_record),
//! [`indexed_enum!`](crate::indexed_enum) and
//! [`event_enum!`](crate::event_enum) — `manytest_core::Report` among
//! them — so a field or variant added to a declaration is encoded
//! without a second edit.

use std::fmt;
use std::str::SplitAsciiWhitespace;

/// First token pair of every encoded stream: format magic + version.
pub const WIRE_HEADER: &str = "manytest-wire 1";

/// A decode failure: what was expected and roughly where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Zero-based index of the offending token.
    pub token: usize,
    /// What the decoder expected there.
    pub expected: &'static str,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error at token {}: expected {}", self.token, self.expected)
    }
}

impl std::error::Error for WireError {}

/// Encoder: appends whitespace-separated tokens to an owned buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: String,
}

impl WireWriter {
    /// A writer primed with the [`WIRE_HEADER`].
    pub fn new() -> Self {
        let mut w = WireWriter { buf: String::new() };
        w.buf.push_str(WIRE_HEADER);
        w
    }

    /// Appends one raw token (must contain no whitespace).
    fn token(&mut self, tok: &str) {
        debug_assert!(!tok.is_empty() && !tok.contains(char::is_whitespace));
        self.buf.push('\n');
        self.buf.push_str(tok);
    }

    /// Appends an unsigned integer token.
    pub fn u64(&mut self, v: u64) {
        self.token(&v.to_string());
    }

    /// Appends a signed integer token.
    pub fn i64(&mut self, v: i64) {
        self.token(&v.to_string());
    }

    /// Appends a float as the lowercase hex of its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.token(&format!("{:016x}", v.to_bits()));
    }

    /// Appends a bool as `0`/`1`.
    pub fn bool(&mut self, v: bool) {
        self.token(if v { "1" } else { "0" });
    }

    /// Appends a string, percent-escaping everything outside
    /// `[A-Za-z0-9_.-]` so the token stays whitespace-free. The empty
    /// string is written as a lone `%` (an escape with no digits, which
    /// no escaped byte produces).
    pub fn str(&mut self, s: &str) {
        if s.is_empty() {
            self.token("%");
            return;
        }
        let mut tok = String::with_capacity(s.len());
        for b in s.bytes() {
            match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'.' | b'-' => {
                    tok.push(b as char);
                }
                _ => {
                    tok.push('%');
                    tok.push_str(&format!("{b:02x}"));
                }
            }
        }
        self.token(&tok);
    }

    /// The finished stream.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Decoder over a token stream produced by [`WireWriter`].
#[derive(Debug)]
pub struct WireReader<'a> {
    toks: SplitAsciiWhitespace<'a>,
    at: usize,
}

impl<'a> WireReader<'a> {
    /// Opens a reader, checking the [`WIRE_HEADER`].
    ///
    /// # Errors
    ///
    /// Fails when the stream does not start with the expected magic and
    /// version tokens.
    pub fn new(text: &'a str) -> Result<Self, WireError> {
        let mut r = WireReader { toks: text.split_ascii_whitespace(), at: 0 };
        let magic = r.next("wire header magic")?;
        let version = r.next("wire header version")?;
        let mut expect = WIRE_HEADER.split_ascii_whitespace();
        if Some(magic) != expect.next() || Some(version) != expect.next() {
            return Err(WireError { token: 0, expected: "manytest-wire header" });
        }
        Ok(r)
    }

    fn next(&mut self, expected: &'static str) -> Result<&'a str, WireError> {
        let tok = self.toks.next().ok_or(WireError { token: self.at, expected })?;
        self.at += 1;
        Ok(tok)
    }

    /// Builds an error anchored at the most recent token — for decoders
    /// that read a well-formed token whose *value* is out of range
    /// (an unknown enum index, an overflowing narrowing, …).
    pub fn err<T>(&self, expected: &'static str) -> Result<T, WireError> {
        Err(WireError { token: self.at.saturating_sub(1), expected })
    }

    /// Reads an unsigned integer token.
    ///
    /// # Errors
    ///
    /// Fails on a missing or non-numeric token.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let tok = self.next("u64")?;
        match tok.parse() {
            Ok(v) => Ok(v),
            Err(_) => self.err("u64"),
        }
    }

    /// Reads a signed integer token.
    ///
    /// # Errors
    ///
    /// Fails on a missing or non-numeric token.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        let tok = self.next("i64")?;
        match tok.parse() {
            Ok(v) => Ok(v),
            Err(_) => self.err("i64"),
        }
    }

    /// Reads a float written as bit-pattern hex.
    ///
    /// # Errors
    ///
    /// Fails on a missing or non-hex token.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        let tok = self.next("f64 bits")?;
        match u64::from_str_radix(tok, 16) {
            Ok(bits) => Ok(f64::from_bits(bits)),
            Err(_) => self.err("f64 bits"),
        }
    }

    /// Reads a `0`/`1` bool token.
    ///
    /// # Errors
    ///
    /// Fails on a missing token or any value other than `0`/`1`.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.next("bool")? {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => self.err("bool"),
        }
    }

    /// Reads a percent-escaped string token.
    ///
    /// # Errors
    ///
    /// Fails on a missing token or a malformed escape.
    pub fn str(&mut self) -> Result<String, WireError> {
        let tok = self.next("string")?;
        if tok == "%" {
            return Ok(String::new());
        }
        let mut out = Vec::with_capacity(tok.len());
        let bytes = tok.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'%' {
                let Some(hex) = tok.get(i + 1..i + 3) else {
                    return self.err("string escape");
                };
                let Ok(b) = u8::from_str_radix(hex, 16) else {
                    return self.err("string escape");
                };
                out.push(b);
                i += 3;
            } else {
                out.push(bytes[i]);
                i += 1;
            }
        }
        match String::from_utf8(out) {
            Ok(s) => Ok(s),
            Err(_) => self.err("utf-8 string"),
        }
    }

    /// Verifies the stream is exhausted (guards against truncated writes
    /// that happen to decode — a short blob must not silently pass).
    ///
    /// # Errors
    ///
    /// Fails when unread tokens remain.
    pub fn finish(mut self) -> Result<(), WireError> {
        if self.toks.next().is_some() {
            return Err(WireError { token: self.at, expected: "end of stream" });
        }
        Ok(())
    }
}

/// A type with an exact wire round-trip: `decode(encode(x)) == x`, bit
/// for bit. Implemented by the declaration macros for records and enums,
/// and by hand beside the few types with a custom layout (maps, count
/// arrays, newtypes).
pub trait Wire: Sized {
    /// Appends this value's tokens to the stream.
    fn encode(&self, w: &mut WireWriter);

    /// Reads one value off the stream.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed input.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

impl Wire for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(u64::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = r.u64()?;
        u32::try_from(v).or_else(|_| r.err("u32"))
    }
}

impl Wire for u16 {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(u64::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = r.u64()?;
        u16::try_from(v).or_else(|_| r.err("u16"))
    }
}

impl Wire for u8 {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(u64::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = r.u64()?;
        u8::try_from(v).or_else(|_| r.err("u8"))
    }
}

impl Wire for usize {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(*self as u64);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = r.u64()?;
        usize::try_from(v).or_else(|_| r.err("usize"))
    }
}

impl Wire for i16 {
    fn encode(&self, w: &mut WireWriter) {
        w.i64(i64::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = r.i64()?;
        i16::try_from(v).or_else(|_| r.err("i16"))
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.f64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.f64()
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.bool(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.bool()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.str(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.str()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        if r.bool()? { Ok(Some(T::decode(r)?)) } else { Ok(None) }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.u64()?;
        // Cap the pre-allocation: a corrupt length token must not OOM.
        let mut out = Vec::with_capacity(usize::try_from(n).unwrap_or(0).min(1 << 16));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Encodes one value as a complete stream (header included).
pub fn encode_to_string<T: Wire>(value: &T) -> String {
    let mut w = WireWriter::new();
    value.encode(&mut w);
    w.finish()
}

/// Decodes one value from a complete stream, requiring full consumption.
///
/// # Errors
///
/// Returns a [`WireError`] on a bad header, malformed tokens, truncation
/// or trailing garbage.
pub fn decode_from_str<T: Wire>(text: &str) -> Result<T, WireError> {
    let mut r = WireReader::new(text)?;
    let v = T::decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips_are_exact() {
        for &bits in &[0u64, 1, 0x8000_0000_0000_0000, f64::NAN.to_bits(), (-0.0f64).to_bits()] {
            let v = f64::from_bits(bits);
            let text = encode_to_string(&v);
            let back: f64 = decode_from_str(&text).expect("round trip");
            assert_eq!(back.to_bits(), bits, "f64 bits must survive");
        }
        let v: Vec<(f64, f64)> = vec![(0.25, -1.5), (1e-300, f64::INFINITY)];
        let back: Vec<(f64, f64)> = decode_from_str(&encode_to_string(&v)).expect("round trip");
        assert_eq!(back, v);
    }

    #[test]
    fn strings_escape_and_round_trip() {
        for s in ["power_w", "", "has space", "per/cent %", "unicode: µW"] {
            let text = encode_to_string(&s.to_owned());
            let back: String = decode_from_str(&text).expect("round trip");
            assert_eq!(back, s);
        }
    }

    #[test]
    fn truncated_and_malformed_input_errors_instead_of_panicking() {
        assert!(decode_from_str::<u64>("").is_err());
        assert!(decode_from_str::<u64>("manytest-wire 1").is_err());
        assert!(decode_from_str::<u64>("manytest-wire 1\nnot-a-number").is_err());
        assert!(decode_from_str::<u64>("wrong-magic 1\n3").is_err());
        // Trailing garbage is rejected too.
        assert!(decode_from_str::<u64>("manytest-wire 1\n3\n4").is_err());
        // A option tag other than 0/1 is rejected.
        assert!(decode_from_str::<Option<u64>>("manytest-wire 1\n2").is_err());
    }

    #[test]
    fn usize_max_survives_via_u64() {
        let text = encode_to_string(&usize::MAX);
        let back: usize = decode_from_str(&text).expect("round trip");
        assert_eq!(back, usize::MAX);
    }
}
