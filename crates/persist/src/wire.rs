//! Whitespace-separated token codec for persisted payloads.
//!
//! Every durable record in this workspace — journal lines, artifact
//! headers, cell results — is a sequence of tokens separated by single
//! spaces, one record per line. The grammar is chosen so that a record
//! is always exactly one line (no token may contain a raw space or
//! newline) and so that decoding is exact:
//!
//! * strings are escaped: `\\` for backslash, `\s` for space, `\n` for
//!   newline, `\t` for tab, `\r` for carriage return, and `\e` for the
//!   empty string (an empty token would otherwise vanish between
//!   separators);
//! * `f64` is written as the 16-hex-digit big-endian form of
//!   `to_bits()`, so round-trips are bit-exact (NaN payloads included)
//!   and never depend on float formatting;
//! * integers and booleans use their ordinary decimal / `true`/`false`
//!   forms.
//!
//! [`Writer`] builds a record; [`Reader`] consumes one token at a time
//! and fails loudly (with the offending token) rather than guessing.

/// Escape a string into a single space-free token.
pub fn escape(s: &str) -> String {
    if s.is_empty() {
        return "\\e".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

/// Invert [`escape`]. Errors on a dangling or unknown escape.
pub fn unescape(tok: &str) -> Result<String, String> {
    if tok == "\\e" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(tok.len());
    let mut chars = tok.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("unknown escape `\\{other}` in token `{tok}`")),
            None => return Err(format!("dangling backslash in token `{tok}`")),
        }
    }
    Ok(out)
}

/// Builds one record as a space-joined token sequence.
#[derive(Default)]
pub struct Writer {
    buf: String,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
    }

    /// Append a raw, already-token-safe word (tags, hex sums). The
    /// caller guarantees it contains no whitespace.
    pub fn word(&mut self, w: &str) -> &mut Self {
        debug_assert!(
            !w.is_empty() && !w.contains(char::is_whitespace),
            "word `{w}` is not token-safe"
        );
        self.sep();
        self.buf.push_str(w);
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.buf.push_str(&escape(s));
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn u128_hex(&mut self, v: u128) -> &mut Self {
        self.sep();
        self.buf.push_str(&format!("{v:032x}"));
        self
    }

    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.sep();
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.word(if v { "true" } else { "false" })
    }

    /// Bit-exact f64: 16 hex digits of `to_bits()`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.sep();
        self.buf.push_str(&format!("{:016x}", v.to_bits()));
        self
    }

    pub fn finish(self) -> String {
        self.buf
    }
}

/// Consumes tokens from one record.
pub struct Reader<'a> {
    toks: std::str::SplitAsciiWhitespace<'a>,
    record: &'a str,
}

impl<'a> Reader<'a> {
    pub fn new(record: &'a str) -> Self {
        Self {
            toks: record.split_ascii_whitespace(),
            record,
        }
    }

    fn context(&self) -> String {
        let mut r = self.record.to_string();
        if r.len() > 120 {
            r.truncate(120);
            r.push('…');
        }
        r
    }

    /// Next raw token, error if the record is exhausted.
    pub fn word(&mut self) -> Result<&'a str, String> {
        self.toks
            .next()
            .ok_or_else(|| format!("record ended early: `{}`", self.context()))
    }

    /// Next token which must equal `expect`.
    pub fn tag(&mut self, expect: &str) -> Result<(), String> {
        let got = self.word()?;
        if got == expect {
            Ok(())
        } else {
            Err(format!(
                "expected tag `{expect}`, got `{got}` in `{}`",
                self.context()
            ))
        }
    }

    pub fn str(&mut self) -> Result<String, String> {
        let tok = self.word()?;
        unescape(tok)
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        let tok = self.word()?;
        tok.parse().map_err(|_| format!("bad u64 `{tok}`"))
    }

    pub fn u128_hex(&mut self) -> Result<u128, String> {
        let tok = self.word()?;
        u128::from_str_radix(tok, 16).map_err(|_| format!("bad u128 hex `{tok}`"))
    }

    pub fn i64(&mut self) -> Result<i64, String> {
        let tok = self.word()?;
        tok.parse().map_err(|_| format!("bad i64 `{tok}`"))
    }

    pub fn usize(&mut self) -> Result<usize, String> {
        let tok = self.word()?;
        tok.parse().map_err(|_| format!("bad usize `{tok}`"))
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        let tok = self.word()?;
        tok.parse().map_err(|_| format!("bad u32 `{tok}`"))
    }

    pub fn bool(&mut self) -> Result<bool, String> {
        match self.word()? {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("bad bool `{other}`")),
        }
    }

    pub fn f64(&mut self) -> Result<f64, String> {
        let tok = self.word()?;
        let bits = u64::from_str_radix(tok, 16).map_err(|_| format!("bad f64 bits `{tok}`"))?;
        if tok.len() != 16 {
            return Err(format!("bad f64 bits `{tok}`"));
        }
        Ok(f64::from_bits(bits))
    }

    /// Consume and return every remaining token, single-space joined.
    /// Because records are single-space joined to begin with, feeding
    /// the result back to a new `Reader` re-reads the same tokens.
    pub fn rest(&mut self) -> String {
        self.toks.by_ref().collect::<Vec<_>>().join(" ")
    }

    /// Assert the record is fully consumed.
    pub fn end(&mut self) -> Result<(), String> {
        match self.toks.next() {
            None => Ok(()),
            Some(extra) => Err(format!("trailing token `{extra}` in `{}`", self.context())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_round_trip_through_escaping() {
        for s in [
            "",
            "plain",
            "with space",
            "tabs\tand\nnewlines\r",
            "back\\slash",
            "\\e",
            "trailing ",
            " leading",
            "unicode: gemütlich ≠ ascii",
        ] {
            let tok = escape(s);
            assert!(
                !tok.contains(' ') && !tok.contains('\n'),
                "token `{tok}` unsafe"
            );
            assert_eq!(unescape(&tok).unwrap(), s);
        }
    }

    #[test]
    fn unescape_rejects_malformed_tokens() {
        assert!(unescape("dangling\\").is_err());
        assert!(unescape("bad\\q").is_err());
    }

    #[test]
    fn f64_is_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-300,
            std::f64::consts::PI,
        ] {
            let mut w = Writer::new();
            w.f64(v);
            let rec = w.finish();
            let mut r = Reader::new(&rec);
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
            r.end().unwrap();
        }
        // NaN payload preserved too.
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut w = Writer::new();
        w.f64(nan);
        let rec = w.finish();
        assert_eq!(Reader::new(&rec).f64().unwrap().to_bits(), nan.to_bits());
    }

    #[test]
    fn mixed_record_round_trips() {
        let mut w = Writer::new();
        w.word("cell")
            .str("fig3/c 1")
            .u64(42)
            .i64(-7)
            .bool(true)
            .f64(2.5)
            .u128_hex(0xdead_beef);
        let rec = w.finish();
        assert!(!rec.contains('\n'));
        let mut r = Reader::new(&rec);
        r.tag("cell").unwrap();
        assert_eq!(r.str().unwrap(), "fig3/c 1");
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.i64().unwrap(), -7);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.u128_hex().unwrap(), 0xdead_beef);
        r.end().unwrap();
    }

    #[test]
    fn reader_reports_early_end_and_trailing_tokens() {
        let mut r = Reader::new("only");
        r.tag("only").unwrap();
        assert!(r.word().is_err());
        let mut r2 = Reader::new("a b");
        r2.tag("a").unwrap();
        assert!(r2.end().is_err());
    }
}
