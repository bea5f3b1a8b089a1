//! Every committed `BENCH_*.json` at the repository root must be valid
//! JSON: the benchmark trajectory and the metrics baseline are read by
//! tools, so a hand edit that breaks one fails here instead of in a later
//! consumer.

use std::path::Path;

/// A strict RFC 8259 syntax check (the documents carry floats, which the
/// integer-only metrics parser of `caa_telemetry::json` rejects).
struct Checker<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Checker<'_> {
    fn check(text: &str) -> Result<(), String> {
        let mut c = Checker {
            bytes: text.as_bytes(),
            pos: 0,
        };
        c.value()?;
        c.ws();
        match c.pos == c.bytes.len() {
            true => Ok(()),
            false => Err(c.err("trailing characters")),
        }
    }

    fn err(&self, what: &str) -> String {
        let line = 1 + self.bytes[..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        format!("{what} at line {line}")
    }

    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.bytes.get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.eat(b) {
            true => Ok(()),
            false => Err(self.err(&format!("expected `{}`", b as char))),
        }
    }

    /// `open item (, item)* close`, or `open close`.
    fn seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                self.seq(b'}', |c| {
                    c.ws();
                    c.string()?;
                    c.expect(b':')?;
                    c.value()
                })
            }
            Some(b'[') => {
                self.pos += 1;
                self.seq(b']', Self::value)
            }
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        match self.bytes[self.pos..].starts_with(word.as_bytes()) {
            true => {
                self.pos += word.len();
                Ok(())
            }
            false => Err(self.err("bad literal")),
        }
    }

    fn string(&mut self) -> Result<(), String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => self.pos += 2,
                Some(&b) if b >= 0x20 => self.pos += 1,
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b"+-.eE0123456789".contains(b))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        match text.parse::<f64>() {
            Ok(_) if !text.starts_with('+') && !text.starts_with('.') => Ok(()),
            _ => Err(self.err(&format!("bad number {text:?}"))),
        }
    }
}

#[test]
fn the_checker_rejects_a_missing_comma() {
    assert!(Checker::check(r#"{"runs": [{"a": 1.5}, {"b": [true, null]}]}"#).is_ok());
    assert!(Checker::check(r#"{"runs": [{"a": 1} {"b": 2}]}"#).is_err());
    assert!(Checker::check(r#"{"a": 1,}"#).is_err());
}

#[test]
fn committed_bench_documents_parse() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(&root).expect("repository root is readable") {
        let path = entry.expect("directory entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("document is readable");
        if let Err(e) = Checker::check(&text) {
            panic!("{name} is not valid JSON: {e}");
        }
        checked.push(name.to_owned());
    }
    assert!(
        checked.iter().any(|n| n == "BENCH_sweep.json"),
        "the sweep trajectory must be among the checked documents: {checked:?}"
    );
}
