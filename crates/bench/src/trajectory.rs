//! The committed sweep trajectory, `BENCH_sweep.json`: a document whose
//! top-level `"runs"` array holds one labelled row per measured change.
//! `sweep_bench --append-to` adds rows through [`append_run`], which
//! splices the new row in as text, so the rows already recorded stay
//! byte for byte as they were.

/// Returns `document` with `row` (one JSON object, already indented as
/// an element of `"runs"`) appended as the last element of its top-level
/// `"runs"` array. Fails when the document has no such array.
///
/// ```
/// let doc = "{\n  \"runs\": [\n    {\"label\": \"a\"}\n  ]\n}\n";
/// let out = caa_bench::trajectory::append_run(doc, "    {\"label\": \"b\"}").unwrap();
/// assert_eq!(
///     out,
///     "{\n  \"runs\": [\n    {\"label\": \"a\"},\n    {\"label\": \"b\"}\n  ]\n}\n"
/// );
/// ```
pub fn append_run(document: &str, row: &str) -> Result<String, String> {
    let (open, close) = runs_array(document.as_bytes())?;
    let body = &document[open + 1..close];
    let kept = body.trim_end();
    let mut out = String::with_capacity(document.len() + row.len() + 8);
    out.push_str(&document[..=open]);
    out.push_str(kept);
    out.push_str(if kept.trim().is_empty() { "\n" } else { ",\n" });
    out.push_str(row);
    out.push('\n');
    // The closing bracket keeps the indentation it had.
    out.push_str(match body[kept.len()..].rfind('\n') {
        Some(newline) => &body[kept.len() + newline + 1..],
        None => "  ",
    });
    out.push_str(&document[close..]);
    Ok(out)
}

/// Byte offsets of the `[` and `]` of the top-level `"runs"` array.
fn runs_array(bytes: &[u8]) -> Result<(usize, usize), String> {
    let mut depth = 0usize;
    let mut i = 0;
    // The depth and offset of the `"runs"` array once its `[` is seen.
    let mut runs: Option<(usize, usize)> = None;
    // Whether the last string closed at depth 1 was the `runs` key.
    let mut runs_key = false;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i + 1;
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                runs_key = depth == 1 && bytes.get(start..i) == Some(b"runs".as_slice());
            }
            b'{' | b'[' => {
                depth += 1;
                if bytes[i] == b'[' && depth == 2 && runs_key && runs.is_none() {
                    runs = Some((depth, i));
                }
                runs_key = false;
            }
            b'}' | b']' => {
                if let Some((runs_depth, open)) = runs {
                    if depth == runs_depth && bytes[i] == b']' {
                        return Ok((open, i));
                    }
                }
                depth = depth.saturating_sub(1);
            }
            b',' => runs_key = false,
            _ => {}
        }
        i += 1;
    }
    Err(String::from("no top-level \"runs\" array"))
}

/// `text` as a JSON string literal.
#[must_use]
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_to_an_empty_array_and_skips_nested_runs_keys() {
        let doc = "{\"note\": \"runs: [\", \"x\": {\"runs\": [1]}, \"runs\": []}";
        assert_eq!(
            append_run(doc, "    {}").unwrap(),
            "{\"note\": \"runs: [\", \"x\": {\"runs\": [1]}, \"runs\": [\n    {}\n  ]}"
        );
        assert!(append_run("{\"rows\": []}", "{}").is_err());
    }

    #[test]
    fn escapes_labels() {
        assert_eq!(json_string("a \"b\"\\\n"), "\"a \\\"b\\\"\\\\\\n\"");
    }
}
