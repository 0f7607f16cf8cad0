//! `repro bench-check`: BENCH artifacts must be valid JSON and verified.
//!
//! Every `BENCH_*.json` file (by default those in the working directory,
//! otherwise the files named on the command line) is parsed with the
//! workspace's one JSON reader, [`swmon_analysis::json::parse`]. A file
//! fails when it does not parse, when its top level is not an object, when
//! any object inside it carries `"verified": false`, when a `rows` or
//! `queries` array is empty, or when nothing in it says `"verified": true`.
//! This replaces text greps over benchmark output with one parser, so a
//! malformed artifact, an unverified row and a row that was never run all
//! fail alike.

use std::path::{Path, PathBuf};

use swmon_analysis::json::{parse, Value};

/// The `BENCH_*.json` files directly inside `dir`, sorted by name. An
/// empty result is an error: a check over nothing would pass vacuously.
pub fn default_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no BENCH_*.json files in {}", dir.display()));
    }
    Ok(files)
}

/// Check one JSON document. `Err` names what is wrong with it.
pub fn check_source(src: &str) -> Result<(), String> {
    let doc = parse(src).map_err(|e| format!("not valid JSON: {e}"))?;
    if !matches!(doc, Value::Obj(_)) {
        return Err("top level is not a JSON object".into());
    }
    let mut audit = Audit::default();
    audit.walk(&doc, "$");
    if !audit.unverified.is_empty() {
        return Err(format!("\"verified\": false at {}", audit.unverified.join(", ")));
    }
    if !audit.empty.is_empty() {
        return Err(format!("empty row list at {}", audit.empty.join(", ")));
    }
    if audit.verified == 0 {
        return Err("no \"verified\": true anywhere: nothing was checked".into());
    }
    Ok(())
}

/// What a walk over one document found.
#[derive(Default)]
struct Audit {
    /// Objects carrying `"verified": true`.
    verified: usize,
    /// Paths of objects carrying `"verified": false`.
    unverified: Vec<String>,
    /// Paths of empty `rows` / `queries` arrays.
    empty: Vec<String>,
}

impl Audit {
    fn walk(&mut self, v: &Value, at: &str) {
        match v {
            Value::Obj(fields) => {
                for (k, child) in fields {
                    let path = format!("{at}.{k}");
                    match (k.as_str(), child) {
                        ("verified", Value::Bool(true)) => self.verified += 1,
                        ("verified", Value::Bool(false)) => self.unverified.push(at.to_string()),
                        ("rows" | "queries", Value::Arr(items)) if items.is_empty() => {
                            self.empty.push(path.clone())
                        }
                        _ => {}
                    }
                    self.walk(child, &path);
                }
            }
            Value::Arr(items) => {
                for (i, child) in items.iter().enumerate() {
                    self.walk(child, &format!("{at}[{i}]"));
                }
            }
            _ => {}
        }
    }
}

/// Check `files` (or, when empty, every `BENCH_*.json` in the working
/// directory). Returns the report, one line per file, and whether every
/// file passed.
pub fn run(files: &[String]) -> (String, bool) {
    let paths = if files.is_empty() {
        match default_files(Path::new(".")) {
            Ok(p) => p,
            Err(e) => return (format!("FAIL {e}"), false),
        }
    } else {
        files.iter().map(PathBuf::from).collect()
    };
    let mut report = Vec::new();
    let mut ok = true;
    for path in &paths {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|src| check_source(&src));
        match verdict {
            Ok(()) => report.push(format!("ok   {}", path.display())),
            Err(why) => {
                ok = false;
                report.push(format!("FAIL {}: {why}", path.display()));
            }
        }
    }
    (report.join("\n"), ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verified_documents_pass() {
        assert_eq!(check_source(r#"{"rows": [{"verified": true}], "verified": true}"#), Ok(()));
    }

    #[test]
    fn documents_that_check_nothing_fail() {
        let none = Err("no \"verified\": true anywhere: nothing was checked".into());
        assert_eq!(check_source(r#"{"experiment": "x"}"#), none);
        assert_eq!(check_source(r#"{"rows": [{"config": "a"}]}"#), none);
        assert_eq!(
            check_source(r#"{"rows": [], "verified": true}"#),
            Err("empty row list at $.rows".into())
        );
        assert!(check_source(r#"{"queries": [], "rows": [{"verified": true}]}"#).is_err());
    }

    #[test]
    fn any_unverified_row_fails_with_its_path() {
        let err = check_source(r#"{"rows": [{"verified": true}, {"verified": false}]}"#);
        assert_eq!(err, Err("\"verified\": false at $.rows[1]".into()));
        assert!(check_source(r#"{"verified": false}"#).is_err());
    }

    #[test]
    fn malformed_or_non_object_documents_fail() {
        let text_first = "E16 table\n{\"verified\": true}";
        assert!(check_source(text_first).unwrap_err().starts_with("not valid JSON"));
        assert!(check_source("{\"verified\": true").is_err());
        assert_eq!(check_source("[1, 2]"), Err("top level is not a JSON object".into()));
    }
}
