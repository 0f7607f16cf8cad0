//! Command-line parsing for the `repro` binary.
//!
//! Parsing is strict: an unknown selector or flag is an error, never a
//! silent no-op, so a mistyped step cannot pass by running nothing.

/// Every experiment and subcommand `repro` can select.
pub const SELECTORS: [&str; 22] = [
    "table1", "e1", "table2", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
    "e13", "e14", "e15", "e16", "e17", "stats", "lint", "analyze",
];

/// One-line usage, printed on `--help` and after every parse error.
pub const USAGE: &str = "usage: repro [table1|table2|e1..e17|stats|lint|analyze]... \
                         [query '<swql>'] [bench-check [FILE.json]...] [--json] [--quick] \
                         [--follow] [--help]";

/// A parsed `repro` command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// Selected experiments and subcommands; empty selects every one.
    pub selectors: Vec<String>,
    /// The SWQL source given after `query`.
    pub query: Option<String>,
    /// `bench-check` and the `.json` files named after it (none: every
    /// `BENCH_*.json` in the working directory).
    pub bench_check: Option<Vec<String>>,
    /// `--json`: also print machine-readable results.
    pub json: bool,
    /// `--quick`: CI-sized event counts.
    pub quick: bool,
    /// `--follow`: stream query matches mid-run.
    pub follow: bool,
    /// `--help` / `-h`: print usage and run nothing.
    pub help: bool,
}

impl Args {
    /// True if experiment or subcommand `k` should run. `query` and
    /// `bench-check` run only when named, and naming only them runs
    /// nothing else.
    pub fn wants(&self, k: &str) -> bool {
        (self.selectors.is_empty() && self.query.is_none() && self.bench_check.is_none())
            || self.selectors.iter().any(|s| s == k)
    }
}

/// Parse `repro`'s arguments (without the program name). The error names
/// the offending argument.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter().map(AsRef::as_ref).peekable();
    while let Some(a) = it.next() {
        match a {
            "--json" => out.json = true,
            "--quick" => out.quick = true,
            "--follow" => out.follow = true,
            "--help" | "-h" => out.help = true,
            // The SWQL source after `query` is positional.
            "query" => match it.next_if(|s| !s.starts_with('-')) {
                Some(src) => out.query = Some(src.to_string()),
                None => return Err("query needs a SWQL source".into()),
            },
            "bench-check" => {
                let files = out.bench_check.get_or_insert_with(Vec::new);
                while let Some(f) = it.next_if(|s| s.ends_with(".json")) {
                    files.push(f.to_string());
                }
            }
            _ if a.starts_with('-') => return Err(format!("unknown flag {a:?}")),
            _ if SELECTORS.contains(&a) => out.selectors.push(a.to_string()),
            _ => return Err(format!("unknown selector {a:?}")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectors_and_flags_parse() {
        let a = parse(&["e13", "e14", "--json", "--quick"]).unwrap();
        assert_eq!(a.selectors, ["e13", "e14"]);
        assert!(a.json && a.quick && !a.follow && !a.help);
        assert!(a.wants("e13") && !a.wants("e3"));
    }

    #[test]
    fn no_selector_runs_everything() {
        let a = parse::<&str>(&[]).unwrap();
        assert!(a.wants("e3") && a.wants("lint"));
    }

    #[test]
    fn query_takes_its_source() {
        let a = parse(&["query", "prop(*)", "--follow"]).unwrap();
        assert_eq!(a.query.as_deref(), Some("prop(*)"));
        assert!(a.follow && !a.wants("e3"), "a lone query runs only the query");
        assert_eq!(parse(&["query", "--json"]), Err("query needs a SWQL source".into()));
    }

    #[test]
    fn bench_check_takes_json_files_and_runs_nothing_else() {
        let a = parse(&["bench-check"]).unwrap();
        assert_eq!(a.bench_check, Some(vec![]));
        assert!(!a.wants("e3"));
        let a = parse(&["bench-check", "a.json", "BENCH_b.json", "e3"]).unwrap();
        assert_eq!(a.bench_check, Some(vec!["a.json".to_string(), "BENCH_b.json".to_string()]));
        assert!(a.wants("e3") && !a.wants("e4"));
        assert_eq!(parse(&["bench-check", "a.jsn"]), Err("unknown selector \"a.jsn\"".into()));
    }

    #[test]
    fn typos_are_errors() {
        assert_eq!(parse(&["e99"]), Err("unknown selector \"e99\"".into()));
        assert_eq!(parse(&["e3", "--jsno"]), Err("unknown flag \"--jsno\"".into()));
        assert!(parse(&["-x"]).is_err());
    }
}
