//! Minimal JSON helpers for the serving wire format.
//!
//! The workspace is offline (no serde), and the protocol only needs flat
//! `f32` arrays and flat objects, so this module hand-rolls exactly that.
//! Numbers are formatted with Rust's shortest-round-trip `Display`, which
//! means a value survives format→parse **bit-identically** — the property
//! that lets the HTTP tests assert served predictions equal in-process
//! predictions down to the last bit.

/// Formats a float slice as a JSON array (`[1,0.5,-3.25]`).
///
/// Uses shortest-round-trip formatting: parsing the output with
/// [`parse_f32_array`] recovers the exact input bits (finite values;
/// non-finite values are not valid JSON and do not occur in engine
/// outputs).
pub fn format_f32_array(values: &[f32]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(values.len() * 8 + 2);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Formats straight into `out`; writing to a `String` cannot fail.
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Parses a JSON array of numbers (`[0.1, 2, -3e-4]`).
///
/// # Errors
///
/// A human-readable description of the first syntax problem.
pub fn parse_f32_array(text: &str) -> Result<Vec<f32>, String> {
    let mut rest = text.trim();
    rest = rest.strip_prefix('[').ok_or("expected '[' to open the array")?.trim_start();
    let mut values = Vec::new();
    if let Some(tail) = rest.strip_prefix(']') {
        if !tail.trim().is_empty() {
            return Err("trailing content after array".into());
        }
        return Ok(values);
    }
    loop {
        let end = rest
            .find([',', ']'])
            .ok_or("array is never closed")?;
        let (token, tail) = rest.split_at(end);
        let token = token.trim();
        let value: f32 = token
            .parse()
            .map_err(|_| format!("`{token}` is not a number"))?;
        if !value.is_finite() {
            return Err(format!("`{token}` is not a finite JSON number"));
        }
        values.push(value);
        if let Some(after) = tail.strip_prefix(']') {
            if !after.trim().is_empty() {
                return Err("trailing content after array".into());
            }
            return Ok(values);
        }
        rest = tail.strip_prefix(',').expect("split at ',' or ']'").trim_start();
    }
}

/// Extracts `"key": [ … ]` from a flat JSON object and parses the array.
///
/// # Errors
///
/// When the key is missing or its value is not a well-formed number array.
pub fn array_field(json: &str, key: &str) -> Result<Vec<f32>, String> {
    let start = field_start(json, key)?;
    let ws = json[start..].len() - json[start..].trim_start().len();
    let from = start + ws;
    if !json[from..].starts_with('[') {
        return Err(format!("`{key}` is not an array"));
    }
    let close = json[from..]
        .find(']')
        .ok_or_else(|| format!("`{key}` array is never closed"))?;
    parse_f32_array(&json[from..=from + close])
}

/// Extracts the numeric value of `"key": n` from a flat JSON object.
///
/// # Errors
///
/// When the key is missing or the value does not parse as a number.
pub fn number_field(json: &str, key: &str) -> Result<f64, String> {
    let start = field_start(json, key)?;
    let token: String = json[start..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        .collect();
    token.parse().map_err(|_| format!("`{key}` is not a number"))
}

/// Extracts the string value of `"key": "…"` from a flat JSON object.
/// Handles the escapes [`escape`] emits (`\" \\ \n \r \t \uXXXX`).
///
/// # Errors
///
/// When the key is missing or the value is not a string literal.
pub fn string_field(json: &str, key: &str) -> Result<String, String> {
    let start = field_start(json, key)?;
    let rest = json[start..].trim_start();
    let Some(inner) = rest.strip_prefix('"') else {
        return Err(format!("`{key}` is not a string"));
    };
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Ok(out),
            '\\' => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("`{key}` has a bad \\u escape"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("`{key}` has a bad \\u escape"))?,
                    );
                }
                _ => return Err(format!("`{key}` has a bad escape")),
            },
            c => out.push(c),
        }
    }
    Err(format!("`{key}` string is never closed"))
}

fn field_start(json: &str, key: &str) -> Result<usize, String> {
    let marker = format!("\"{key}\":");
    json.find(&marker)
        .map(|i| i + marker.len())
        .ok_or_else(|| format!("field `{key}` not found"))
}

/// Escapes a string for embedding inside a JSON string literal.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_round_trip_bit_exactly() {
        let values = vec![0.0f32, -0.0, 1.5, 0.1, f32::MIN_POSITIVE, 3.402_823_5e38, -7.25];
        let parsed = parse_f32_array(&format_f32_array(&values)).unwrap();
        assert_eq!(parsed.len(), values.len());
        for (a, b) in values.iter().zip(&parsed) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} must survive the wire");
        }
    }

    #[test]
    fn formatting_matches_per_value_display() {
        let values = [
            -0.0f32,
            0.0,
            1e-45,
            f32::from_bits(0x0040_0000),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            16_777_216.0,
            -3.0,
            0.1,
            -7.25e-12,
        ];
        let want = format!(
            "[{}]",
            values.iter().map(|v| format!("{v}")).collect::<Vec<_>>().join(",")
        );
        assert_eq!(format_f32_array(&values), want);
        assert_eq!(format_f32_array(&[]), "[]");
        assert_eq!(format_f32_array(&[-0.0, 1e-45]), "[-0,0.000000000000000000000000000000000000000000001]");
    }

    #[test]
    fn parser_accepts_whitespace_and_empty() {
        assert_eq!(parse_f32_array("[ ]").unwrap(), Vec::<f32>::new());
        assert_eq!(parse_f32_array(" [ 1 , 2.5 ,-3e1 ] ").unwrap(), vec![1.0, 2.5, -30.0]);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "1,2", "[1,2", "[1,,2]", "[a]", "[1] junk", "[1,2]]"] {
            assert!(parse_f32_array(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn object_field_extraction() {
        let json = r#"{"status":"ok","input_len":64,"output":[1,2.5]}"#;
        assert_eq!(number_field(json, "input_len").unwrap(), 64.0);
        assert_eq!(array_field(json, "output").unwrap(), vec![1.0, 2.5]);
        assert!(number_field(json, "missing").is_err());
        assert!(array_field(json, "status").is_err());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn string_field_extraction_round_trips_escapes() {
        let json = r#"{"model":"le-net_v2","note":"a\"b\\c\nd","n":3}"#;
        assert_eq!(string_field(json, "model").unwrap(), "le-net_v2");
        assert_eq!(string_field(json, "note").unwrap(), "a\"b\\c\nd");
        assert!(string_field(json, "n").is_err());
        assert!(string_field(json, "missing").is_err());
        let rt = format!("{{\"x\":\"{}\"}}", escape("tab\tและ\u{1}"));
        assert_eq!(string_field(&rt, "x").unwrap(), "tab\tและ\u{1}");
    }
}
