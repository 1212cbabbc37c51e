//! CI guard for the bench-trajectory artifacts: verifies that each file
//! produced by the vendored criterion harness's `CRITERION_JSON` emitter
//! is well-formed JSON of the expected shape — a non-empty array of
//! objects each carrying a non-empty `name` string and a positive, finite
//! `median_ns` number. Exits non-zero (failing the CI step) on the first
//! malformed or empty file, so the perf trajectory can never silently
//! degrade into unparseable or vacuous artifacts.
//!
//! Beyond well-formedness it enforces one *performance* invariant: rows
//! that share a workload (same benchmark name with the algorithm segment
//! removed, e.g. `lscr/S3-narrowL/{UIS,UIS*,INS,Auto}/10`) must stay
//! within a 100× median spread of each other. The algorithms answer the
//! same queries; a 4-orders-of-magnitude gap between them (the old
//! `S3-narrowL` rows sat at ~15 000× the best) means one kernel is
//! missing a structural optimization, and the committed artifact should
//! not be allowed to normalize that. `*.before.json` snapshots are
//! exempt from the spread check (shape is still enforced): they are
//! frozen baselines whose whole purpose is to record the pathological
//! state a later commit fixed.
//!
//! Usage: `check_bench_json BENCH_algorithms.json [more.json ...]`

use kgreach_serve::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: check_bench_json <result.json> [...]");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        match check_file(path) {
            Ok(n) => println!("{path}: ok ({n} benchmark results)"),
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn check_file(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    check_text(path, &text)
}

/// Checks one artifact's contents; `path` decides the `*.before.json`
/// exemption.
fn check_text(path: &str, text: &str) -> Result<usize, String> {
    let Json::Arr(entries) = Json::parse(text).map_err(|e| e.to_string())? else {
        return Err("top-level value is not an array".into());
    };
    if entries.is_empty() {
        return Err("result array is empty".into());
    }
    for (i, entry) in entries.iter().enumerate() {
        let Json::Obj(fields) = entry else {
            return Err(format!("entry {i} is not an object"));
        };
        match fields.iter().find(|(k, _)| k == "name") {
            Some((_, Json::Str(s))) if !s.is_empty() => {}
            Some(_) => return Err(format!("entry {i}: \"name\" is not a non-empty string")),
            None => return Err(format!("entry {i}: missing \"name\"")),
        }
        match fields.iter().find(|(k, _)| k == "median_ns") {
            Some((_, Json::Num(n))) if n.is_finite() && *n > 0.0 => {}
            Some(_) => return Err(format!("entry {i}: \"median_ns\" is not a positive number")),
            None => return Err(format!("entry {i}: missing \"median_ns\"")),
        }
    }
    // Historical before-snapshots intentionally preserve the slow rows
    // a later commit eliminated; only live artifacts must stay tight.
    if !path.ends_with(".before.json") {
        check_workload_spread(&entries)?;
    }
    Ok(entries.len())
}

/// Maximum allowed ratio between the slowest and fastest algorithm on
/// the same workload. Generous enough for the real asymmetries (an
/// uninformed search skipping index maintenance on easy rows), tight
/// enough to reject a kernel that has fallen off its fast path.
const MAX_WORKLOAD_SPREAD: f64 = 100.0;

/// Groups rows by workload — the benchmark name with its algorithm
/// segment (second-to-last `/` component) removed — and rejects any
/// group whose slowest median exceeds [`MAX_WORKLOAD_SPREAD`]× its
/// fastest. Names with fewer than three segments carry no algorithm
/// dimension and are exempt.
fn check_workload_spread(entries: &[Json]) -> Result<(), String> {
    // A named row: (full benchmark name, median_ns).
    type Row = (String, f64);
    // (workload key, fastest row, slowest row); the row keeps its full
    // name so the error message points at the exact offenders.
    let mut groups: Vec<(String, Row, Row)> = Vec::new();
    for entry in entries {
        let Json::Obj(fields) = entry else { continue };
        let (Some(name), Some(median)) = (
            fields.iter().find_map(|(k, v)| match v {
                Json::Str(s) if k == "name" => Some(s.clone()),
                _ => None,
            }),
            fields.iter().find_map(|(k, v)| match v {
                Json::Num(n) if k == "median_ns" => Some(*n),
                _ => None,
            }),
        ) else {
            continue;
        };
        let segments: Vec<&str> = name.split('/').collect();
        if segments.len() < 3 {
            continue;
        }
        let mut key_parts = segments.clone();
        key_parts.remove(segments.len() - 2);
        let key = key_parts.join("/");
        match groups.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, fastest, slowest)) => {
                if median < fastest.1 {
                    *fastest = (name.clone(), median);
                }
                if median > slowest.1 {
                    *slowest = (name, median);
                }
            }
            None => groups.push((key, (name.clone(), median), (name, median))),
        }
    }
    for (key, fastest, slowest) in &groups {
        if slowest.1 > MAX_WORKLOAD_SPREAD * fastest.1 {
            return Err(format!(
                "workload '{key}': '{}' ({:.1} ns) is {:.0}x slower than '{}' ({:.1} ns); \
                 the allowed spread is {MAX_WORKLOAD_SPREAD:.0}x",
                slowest.0,
                slowest.1,
                slowest.1 / fastest.1,
                fastest.0,
                fastest.1,
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::check_text;

    fn rejects(text: &str, needle: &str) {
        match check_text("BENCH_x.json", text) {
            Err(e) => assert!(e.contains(needle), "{text:?}: error {e:?} lacks {needle:?}"),
            Ok(n) => panic!("{text:?} passed the gate with {n} rows"),
        }
    }

    #[test]
    fn accepts_well_formed_rows() {
        let text = r#"[{"name": "lscr/S1/UIS/10", "median_ns": 1500.5},
                      {"name": "lscr/S1/INS/10", "median_ns": 2e3}]"#;
        assert_eq!(check_text("BENCH_x.json", text), Ok(2));
    }

    #[test]
    fn rejects_malformed_documents() {
        rejects(r#"[{"name": "a", "median_ns": 1}] x"#, "trailing");
        rejects(r#"{"name": "a", "median_ns": 1}"#, "not an array");
        rejects("[]", "empty");
        rejects("[1]", "not an object");
    }

    #[test]
    fn rejects_bad_names() {
        rejects(r#"[{"median_ns": 1}]"#, "missing \"name\"");
        rejects(r#"[{"name": "", "median_ns": 1}]"#, "non-empty string");
        rejects(r#"[{"name": 7, "median_ns": 1}]"#, "non-empty string");
    }

    #[test]
    fn rejects_bad_medians() {
        rejects(r#"[{"name": "a"}]"#, "missing \"median_ns\"");
        for median in ["0", "-3", "\"12\"", "null", "1e999"] {
            rejects(&format!(r#"[{{"name": "a", "median_ns": {median}}}]"#), "positive number");
        }
        for number in ["+1", "1.", ".5", "01", "inf", "NaN"] {
            rejects(&format!(r#"[{{"name": "a", "median_ns": {number}}}]"#), "invalid JSON");
        }
    }

    #[test]
    fn enforces_the_workload_spread_except_on_before_snapshots() {
        let text = r#"[{"name": "lscr/S3/UIS/10", "median_ns": 10},
                      {"name": "lscr/S3/INS/10", "median_ns": 1001}]"#;
        rejects(text, "allowed spread is 100x");
        assert_eq!(check_text("BENCH_x.before.json", text), Ok(2));
        // Exactly 100x is allowed; two-segment names carry no algorithm.
        let edge = r#"[{"name": "lscr/S3/UIS/10", "median_ns": 10},
                      {"name": "lscr/S3/INS/10", "median_ns": 1000},
                      {"name": "fsync/always", "median_ns": 1},
                      {"name": "fsync/off", "median_ns": 100000}]"#;
        assert_eq!(check_text("BENCH_x.json", edge), Ok(4));
    }
}
