//! Trajectory recording: one JSON line per simbench run, appended to
//! `BENCH_simbench.json`, plus the parser and comparator the regression gate
//! (`--check`) uses against the last committed line.
//!
//! The serializer keeps object keys in insertion order and renders floats
//! with Rust's shortest round-trip formatting, so a deterministic run
//! produces a byte-identical line every time — the acceptance property the
//! CLI's `--scenario all --seed N` contract is built on. (Hand-rolled because
//! byte-stable output is the requirement and the workspace has no JSON
//! dependency; this is the workspace's one JSON writer.)

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;

/// A JSON value with ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` — how a non-finite float renders, and an absent value (a span
    /// without a parent in the perf ledger's trace files).
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer (counts, sequence numbers).
    Int(i64),
    /// A float (accuracies, shares). Non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved, which makes rendering
    /// deterministic without sorting.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an f64 when it is numeric (`Int` or `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) if !v.is_finite() => out.push_str("null"),
            Json::Float(v) => {
                // `{:?}` is the shortest representation that round-trips the
                // exact bits — deterministic for a deterministic computation.
                let _ = write!(out, "{v:?}");
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// Parses one JSON document. Supports exactly the subset [`Json::render`]
/// emits (plus insignificant whitespace) — enough to read back a committed
/// trajectory line.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let hex =
                                    std::str::from_utf8(hex).map_err(|_| "non-ASCII \\u escape")?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                                s.push(
                                    char::from_u32(code)
                                        .ok_or("surrogate \\u escape unsupported")?,
                                );
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar, not one byte.
                        let rest = std::str::from_utf8(&bytes[*pos..])
                            .map_err(|_| "invalid UTF-8 in string")?;
                        let c = rest.chars().next().expect("non-empty by construction");
                        s.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII by construction");
            if text.bytes().all(|b| b.is_ascii_digit() || b == b'-') {
                text.parse::<i64>()
                    .map(Json::Int)
                    .map_err(|e| format!("bad int {text:?}: {e}"))
            } else {
                text.parse::<f64>()
                    .map(Json::Float)
                    .map_err(|e| format!("bad number {text:?}: {e}"))
            }
        }
    }
}

/// Appends one rendered JSON line to the trajectory file.
///
/// # Errors
///
/// Returns the I/O error message on failure.
pub fn append_line(path: &Path, line: &Json) -> Result<(), String> {
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{}", line.render()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Reads the last non-empty line of the trajectory file; `Ok(None)` when the
/// file does not exist or holds no lines yet.
///
/// # Errors
///
/// Returns the I/O or parse error message on failure.
pub fn read_last_line(path: &Path) -> Result<Option<Json>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    match text.lines().rev().find(|line| !line.trim().is_empty()) {
        Some(line) => parse(line)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display())),
        None => Ok(None),
    }
}

/// How the regression gate treats one recorded metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Not gated — informational only (analytic references, raw counts
    /// whose value legitimately changes when scenarios are retuned).
    None,
    /// Must match the committed value exactly (invariant counts: e.g. every
    /// hostile frame rejected).
    Exact,
    /// Must not drop more than `slack` below the committed value (quality
    /// metrics: accuracies, margins).
    AtLeast {
        /// Permitted drop before the gate fails.
        slack: f64,
    },
    /// Must not rise more than `slack` above the committed value
    /// (lower-is-better metrics: forgetting).
    AtMost {
        /// Permitted rise before the gate fails.
        slack: f64,
    },
}

/// One regression found by [`compare_runs`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// `scenario.metric` path of the offending value.
    pub path: String,
    /// Human-readable description of the drop.
    pub detail: String,
}

/// Compares a fresh run against the committed baseline line. `gates` maps
/// `(scenario, metric)` to the gate policy; ungated metrics and scenarios
/// absent from either side are skipped (the gate must not block adding or
/// retiring scenarios). A baseline recorded at a different seed pins a
/// different trace, so nothing can be compared: that is reported as the one
/// regression at path `seed`, never as a clean pass.
pub fn compare_runs(
    baseline: &Json,
    fresh: &Json,
    gates: &[(String, String, Gate)],
) -> Vec<Regression> {
    let (base_seed, fresh_seed) = (baseline.get("seed"), fresh.get("seed"));
    if base_seed != fresh_seed {
        let show = |seed: Option<&Json>| seed.map_or_else(|| "none".to_string(), Json::render);
        return vec![Regression {
            path: "seed".to_string(),
            detail: format!(
                "baseline was recorded at seed {} but this run used seed {}; \
                 nothing was compared",
                show(base_seed),
                show(fresh_seed)
            ),
        }];
    }
    let mut regressions = Vec::new();
    let (Some(base_scenarios), Some(fresh_scenarios)) =
        (baseline.get("scenarios"), fresh.get("scenarios"))
    else {
        return regressions;
    };
    for (scenario, metric, gate) in gates {
        let path = format!("{scenario}.{metric}");
        let base = base_scenarios.get(scenario).and_then(|s| s.get(metric));
        let new = fresh_scenarios.get(scenario).and_then(|s| s.get(metric));
        let (Some(base), Some(new)) = (base, new) else {
            continue;
        };
        match gate {
            Gate::None => {}
            Gate::Exact => {
                if base != new {
                    regressions.push(Regression {
                        path,
                        detail: format!("expected {} exactly, got {}", base.render(), new.render()),
                    });
                }
            }
            Gate::AtLeast { slack } => {
                if let (Some(base), Some(new)) = (base.as_f64(), new.as_f64()) {
                    if new < base - slack {
                        regressions.push(Regression {
                            path,
                            detail: format!(
                                "dropped to {new:.4} from committed {base:.4} \
                                 (slack {slack})"
                            ),
                        });
                    }
                }
            }
            Gate::AtMost { slack } => {
                if let (Some(base), Some(new)) = (base.as_f64(), new.as_f64()) {
                    if new > base + slack {
                        regressions.push(Regression {
                            path,
                            detail: format!(
                                "rose to {new:.4} from committed {base:.4} \
                                 (slack {slack})"
                            ),
                        });
                    }
                }
            }
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip_preserves_structure_and_order() {
        let doc = Json::Obj(vec![
            ("bench".into(), Json::Str("simbench".into())),
            ("seed".into(), Json::Int(7)),
            ("zeta".into(), Json::Float(0.8125)),
            ("parent".into(), Json::Null),
            ("ok".into(), Json::Bool(true)),
            (
                "arr".into(),
                Json::Arr(vec![
                    Json::Int(-3),
                    Json::Float(0.5),
                    Json::Str("a\"b\\c".into()),
                ]),
            ),
        ]);
        let rendered = doc.render();
        let parsed = parse(&rendered).unwrap();
        assert_eq!(parsed, doc);
        // Byte-stability: rendering the parse reproduces the exact text.
        assert_eq!(parsed.render(), rendered);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{\"a\" 1}",
            "12 34",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for v in [0.1, 1.0 / 3.0, 123_456.789, 1e-12, -0.0625] {
            let rendered = Json::Float(v).render();
            match parse(&rendered).unwrap() {
                Json::Float(back) => assert_eq!(back.to_bits(), v.to_bits(), "{rendered}"),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    fn line(seed: i64, acc: f64, rejected: i64) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::Int(seed)),
            (
                "scenarios".into(),
                Json::Obj(vec![(
                    "audit".into(),
                    Json::Obj(vec![
                        ("serve_avg".into(), Json::Float(acc)),
                        ("hostile_rejected".into(), Json::Int(rejected)),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn gate_flags_quality_drops_and_exact_mismatches() {
        let gates = vec![
            (
                "audit".to_string(),
                "serve_avg".to_string(),
                Gate::AtLeast { slack: 0.02 },
            ),
            (
                "audit".to_string(),
                "hostile_rejected".to_string(),
                Gate::Exact,
            ),
        ];
        // Within slack: clean.
        assert!(compare_runs(&line(7, 0.80, 5), &line(7, 0.79, 5), &gates).is_empty());
        // Quality drop beyond slack: flagged.
        let drops = compare_runs(&line(7, 0.80, 5), &line(7, 0.70, 5), &gates);
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].path, "audit.serve_avg");
        // Exact mismatch: flagged.
        let exact = compare_runs(&line(7, 0.80, 5), &line(7, 0.80, 4), &gates);
        assert_eq!(exact.len(), 1);
        assert_eq!(exact[0].path, "audit.hostile_rejected");
        // A different seed pins a different trace: one regression naming
        // both seeds, never a silent pass that compared nothing.
        let seed = compare_runs(&line(8, 0.80, 5), &line(7, 0.10, 0), &gates);
        assert_eq!(seed.len(), 1);
        assert_eq!(seed[0].path, "seed");
        assert!(seed[0].detail.contains("seed 8") && seed[0].detail.contains("seed 7"));
    }

    #[test]
    fn append_and_read_back_last_line() {
        let dir = std::env::temp_dir().join("ofscil_simbench_record_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trajectory.json");
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_last_line(&path).unwrap(), None);
        append_line(&path, &line(7, 0.8, 5)).unwrap();
        append_line(&path, &line(7, 0.9, 6)).unwrap();
        let last = read_last_line(&path).unwrap().unwrap();
        assert_eq!(last, line(7, 0.9, 6));
        std::fs::remove_file(&path).unwrap();
    }
}
