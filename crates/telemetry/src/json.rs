//! Minimal JSON machinery: string escaping for the exporters, and the
//! one flat-object field reader every consumer of their output uses.
//! Numbers are formatted with Rust's shortest-roundtrip `Display`, which
//! is already valid JSON.
//!
//! The readers are line-oriented field extraction, not a JSON parser:
//! the workspace vendors no JSON dependency, and every writer here emits
//! one flat object per line with `"key": value` spacing (pinned by this
//! module's tests).

use std::fmt::Write;

/// Appends `s` to `out` as a JSON string literal (quotes included),
/// escaping quotes, backslashes and control characters.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Appends an `f64` as a JSON number. Non-finite values (which JSON
/// cannot represent) are emitted as `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// The raw token after `"key": ` on `line`, up to the next `,` or `}`.
fn field_token<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    let at = line.find(&needle)? + needle.len();
    let tail = &line[at..];
    let end = tail.find([',', '}']).unwrap_or(tail.len());
    Some(tail[..end].trim())
}

/// The unsigned integer after `"key": ` on `line`, if present.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    field_token(line, key)?.parse().ok()
}

/// The number after `"key": ` on `line`, if present.
pub fn field_f64(line: &str, key: &str) -> Option<f64> {
    field_token(line, key)?.parse().ok()
}

/// The boolean after `"key": ` on `line`, if present.
pub fn field_bool(line: &str, key: &str) -> Option<bool> {
    field_token(line, key)?.parse().ok()
}

/// The string after `"key": "` on `line`, if present (up to the next
/// quote; the exporters' keys and enum values carry no escapes).
pub fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": \"");
    let at = line.find(&needle)? + needle.len();
    let tail = &line[at..];
    Some(&tail[..tail.find('"')?])
}

/// Strips the `"at_us": N, ` field from each line of a JSONL event
/// export, leaving everything else byte-identical.
///
/// Two runs of the same seeded chaos plan produce the same probe-level
/// event *sequence* but not the same wall-clock timestamps; diffing
/// `strip_at_us(a) == strip_at_us(b)` is the replay-identity check.
pub fn strip_at_us(jsonl: &str) -> String {
    const FIELD: &str = "\"at_us\": ";
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        match line.find(FIELD) {
            Some(at) => {
                let tail = &line[at + FIELD.len()..];
                let digits = tail.chars().take_while(char::is_ascii_digit).count();
                let rest = tail[digits..].strip_prefix(", ").unwrap_or(&tail[digits..]);
                out.push_str(&line[..at]);
                out.push_str(rest);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_timestamps_only() {
        let a = "{\"at_us\": 12345, \"campaign\": 1, \"kind\": \"probe_sent\"}\n";
        let b = "{\"at_us\": 99, \"campaign\": 1, \"kind\": \"probe_sent\"}\n";
        assert_eq!(strip_at_us(a), strip_at_us(b));
        assert_eq!(
            strip_at_us(a),
            "{\"campaign\": 1, \"kind\": \"probe_sent\"}\n"
        );
        // Lines without the field pass through untouched.
        assert_eq!(strip_at_us("{\"x\": 1}\n"), "{\"x\": 1}\n");
    }

    #[test]
    fn reads_flat_fields_of_every_type() {
        let line = r#"{"kind": "probe_matched", "rtt_us": 812, "ratio": 0.97, "ok": true}"#;
        assert_eq!(field_str(line, "kind"), Some("probe_matched"));
        assert_eq!(field_u64(line, "rtt_us"), Some(812));
        assert_eq!(field_f64(line, "ratio"), Some(0.97));
        assert_eq!(field_bool(line, "ok"), Some(true));
        // The terminal field parses up to the closing brace.
        assert_eq!(field_f64(r#"{"probes": 7}"#, "probes"), Some(7.0));
        assert_eq!(field_u64(line, "missing"), None);
        assert_eq!(field_u64(line, "kind"), None, "a string is not a number");
        assert_eq!(field_str(line, "rtt_us"), None, "a number is not a string");
    }

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn numbers_roundtrip() {
        let mut out = String::new();
        write_f64(&mut out, 1.5);
        out.push(' ');
        write_f64(&mut out, 3.0);
        out.push(' ');
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "1.5 3 null");
    }
}
