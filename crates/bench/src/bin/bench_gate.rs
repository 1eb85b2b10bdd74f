//! CI bench-regression gate.
//!
//! Compares a freshly generated `BENCH_wire.json` against the committed
//! baseline and fails (exit 1) if any tracked metric regressed by more
//! than the threshold (default 10%). Tracked metrics are the numeric
//! leaves whose key ends in `_bytes` (wire volume — bytes per element is
//! proportional at fixed n/s) or `_us` (virtual time in microseconds;
//! host wall times are written as `_ms` and not gated). Lower is
//! better for both; new keys appear and old keys disappear without
//! failing the gate, so adding a scheme or sparsity point never blocks CI.
//!
//! ```text
//! bench_gate BASELINE.json FRESH.json [--threshold 0.10]
//! ```
//!
//! The build environment is offline and dependency-free, so the JSON
//! reader below is a minimal recursive-descent parser that flattens a
//! document into `path -> f64` for its numeric leaves — all this gate
//! needs, not a general JSON library.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Flatten every numeric leaf of a JSON document into `dotted.path -> f64`.
/// Array elements are indexed (`path.0`, `path.1`, …). Non-numeric leaves
/// are skipped. Returns an error message on malformed input.
fn flatten_numbers(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    parse_value(bytes, &mut pos, &mut String::new(), &mut out)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(out)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(
    b: &[u8],
    pos: &mut usize,
    path: &mut String,
    out: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let saved = path.len();
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(&key);
                parse_value(b, pos, path, out)?;
                path.truncate(saved);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            let mut i = 0usize;
            loop {
                let saved = path.len();
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(&i.to_string());
                parse_value(b, pos, path, out)?;
                path.truncate(saved);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => {
                        *pos += 1;
                        i += 1;
                    }
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            parse_string(b, pos)?;
            Ok(())
        }
        Some(b't') => expect_lit(b, pos, "true"),
        Some(b'f') => expect_lit(b, pos, "false"),
        Some(b'n') => expect_lit(b, pos, "null"),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
            let v: f64 = s
                .parse()
                .map_err(|_| format!("bad number '{s}' at byte {start}"))?;
            out.insert(path.clone(), v);
            Ok(())
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let mut s = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(s),
            b'\\' => {
                // Keys in bench JSON are plain identifiers; keep escapes
                // verbatim rather than decoding them.
                if let Some(&e) = b.get(*pos) {
                    *pos += 1;
                    s.push('\\');
                    s.push(e as char);
                }
            }
            _ => s.push(c as char),
        }
    }
    Err("unterminated string".into())
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

/// A metric key the gate enforces: lower is better, regressions beyond
/// the threshold fail CI.
fn is_tracked(key: &str) -> bool {
    key.ends_with("_bytes") || key.ends_with("_us")
}

struct Row {
    key: String,
    base: f64,
    fresh: f64,
    ratio: f64,
    regressed: bool,
}

fn compare(
    base: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    threshold: f64,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (key, &b) in base {
        if !is_tracked(key) {
            continue;
        }
        let Some(&f) = fresh.get(key) else {
            // A removed metric is a bench-shape change, not a regression.
            continue;
        };
        let ratio = if b > 0.0 { f / b } else { 1.0 };
        rows.push(Row {
            key: key.clone(),
            base: b,
            fresh: f,
            ratio,
            regressed: ratio > 1.0 + threshold,
        });
    }
    rows
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 0.10f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => threshold = t,
                None => {
                    eprintln!("--threshold needs a number");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            paths.push(a.clone());
        }
    }
    let [base_path, fresh_path] = paths.as_slice() else {
        eprintln!("usage: bench_gate BASELINE.json FRESH.json [--threshold 0.10]");
        return ExitCode::FAILURE;
    };
    let read = |p: &str| -> Result<BTreeMap<String, f64>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        flatten_numbers(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (base, fresh) = match (read(base_path), read(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows = compare(&base, &fresh, threshold);
    if rows.is_empty() {
        eprintln!("bench_gate: no tracked metrics (*_bytes, *_us) in {base_path}");
        return ExitCode::FAILURE;
    }
    let key_w = rows.iter().map(|r| r.key.len()).max().unwrap_or(6).max(6);
    println!(
        "{:<key_w$} {:>14} {:>14} {:>8}  gate(+{:.0}%)",
        "metric",
        "baseline",
        "fresh",
        "ratio",
        threshold * 100.0
    );
    let mut failures = 0usize;
    for r in &rows {
        println!(
            "{:<key_w$} {:>14.1} {:>14.1} {:>8.3}  {}",
            r.key,
            r.base,
            r.fresh,
            r.ratio,
            if r.regressed { "FAIL" } else { "ok" }
        );
        if r.regressed {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!(
            "bench_gate: {failures} metric(s) regressed more than {:.0}% against {base_path}",
            threshold * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("bench_gate: {} metrics within threshold", rows.len());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"n": 4, "bytes": {"s0.1": {"ed": {"v1_bytes": 100, "saving": 0.5}}},
        "encode_parallel": {"sequential_us": 20.5, "list": [1, 2.5]}}"#;

    #[test]
    fn flattens_numeric_leaves_with_dotted_paths() {
        let m = flatten_numbers(DOC).unwrap();
        assert_eq!(m["n"], 4.0);
        assert_eq!(m["bytes.s0.1.ed.v1_bytes"], 100.0);
        assert_eq!(m["encode_parallel.sequential_us"], 20.5);
        assert_eq!(m["encode_parallel.list.0"], 1.0);
        assert_eq!(m["encode_parallel.list.1"], 2.5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(flatten_numbers("{").is_err());
        assert!(flatten_numbers("{\"a\": }").is_err());
        assert!(flatten_numbers("{}extra").is_err());
    }

    #[test]
    fn tracked_keys_are_bytes_and_us() {
        assert!(is_tracked("bytes.s0.1.ed.v1_bytes"));
        assert!(is_tracked("encode_parallel.sequential_us"));
        assert!(!is_tracked("bytes.s0.1.ed.saving"));
        assert!(!is_tracked("n"));
    }

    #[test]
    fn regression_beyond_threshold_fails_within_passes() {
        let base = flatten_numbers(r#"{"a_bytes": 100, "b_us": 50}"#).unwrap();
        let fresh = flatten_numbers(r#"{"a_bytes": 109, "b_us": 56}"#).unwrap();
        let rows = compare(&base, &fresh, 0.10);
        assert_eq!(rows.len(), 2);
        assert!(!rows[0].regressed, "a_bytes +9% is within the gate");
        assert!(rows[1].regressed, "b_us +12% regresses");
    }

    #[test]
    fn removed_and_added_metrics_do_not_fail() {
        let base = flatten_numbers(r#"{"gone_bytes": 100}"#).unwrap();
        let fresh = flatten_numbers(r#"{"new_bytes": 5}"#).unwrap();
        assert!(compare(&base, &fresh, 0.10).is_empty());
    }

    #[test]
    fn pipeline_overlap_makespans_are_gated() {
        // The virtual-time makespans the pipeline_overlap bench emits are
        // deterministic, so the gate pins them exactly like byte counts:
        // a slower overlapped schedule is a regression, the dimensionless
        // speedup ratio is not tracked.
        let doc = r#"{"pipeline_overlap": {
            "ed": {"staged_us": 156025.2, "overlap_us": 132626.5,
                   "speedup": 1.176, "overlap_bytes": 1608000}}}"#;
        let base = flatten_numbers(doc).unwrap();
        assert!(is_tracked("pipeline_overlap.ed.staged_us"));
        assert!(is_tracked("pipeline_overlap.ed.overlap_bytes"));
        assert!(!is_tracked("pipeline_overlap.ed.speedup"));
        let fresh = flatten_numbers(
            r#"{"pipeline_overlap": {
            "ed": {"staged_us": 156025.2, "overlap_us": 155000.0,
                   "speedup": 1.007, "overlap_bytes": 1608000}}}"#,
        )
        .unwrap();
        let rows = compare(&base, &fresh, 0.10);
        let slow = rows
            .iter()
            .find(|r| r.key == "pipeline_overlap.ed.overlap_us")
            .expect("overlap_us is compared");
        assert!(slow.regressed, "losing the overlap win must trip the gate");
    }
}
