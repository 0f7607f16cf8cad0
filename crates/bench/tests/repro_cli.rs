//! `repro` fails loudly on a typo: an unknown selector or flag exits 2
//! with the usage line on stderr and runs nothing, and every invocation
//! the CI workflow makes still parses.

use std::process::{Command, Output};
use swmon_bench::cli;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(stderr.contains(cli::USAGE), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran something: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn unknown_selector_exits_2() {
    assert_usage_error(&["e99"], "unknown selector \"e99\"");
}

#[test]
fn unknown_flag_exits_2() {
    assert_usage_error(&["e3", "--jsno"], "unknown flag \"--jsno\"");
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), cli::USAGE);
}

#[test]
fn every_ci_invocation_parses() {
    let ci = include_str!("../../../.github/workflows/ci.yml");
    let mut seen = 0;
    for line in ci.lines() {
        let Some((_, rest)) = line.split_once("--bin repro --") else { continue };
        let cmd = rest.split('|').next().unwrap_or_default();
        let args: Vec<&str> = cmd.split_whitespace().collect();
        cli::parse(&args).unwrap_or_else(|e| panic!("CI step `repro{cmd}` does not parse: {e}"));
        seen += 1;
    }
    assert!(seen >= 5, "found only {seen} repro invocations in ci.yml");
}

#[test]
fn checked_in_bench_artifacts_parse_and_verify() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("bench-check")
        .current_dir(root)
        .output()
        .expect("repro runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let checked = stdout.lines().filter(|l| l.starts_with("ok ")).count();
    assert!(checked >= 5, "only {checked} BENCH files checked:\n{stdout}");
}

#[test]
fn bench_check_fails_on_malformed_or_unverified_files() {
    let dir = std::env::temp_dir().join(format!("repro-bench-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).expect("write fixture");
        path.to_string_lossy().into_owned()
    };
    let good = write("good.json", r#"{"rows": [{"verified": true}], "verified": true}"#);
    let preamble = write("preamble.json", "E16 table\n{\"verified\": true}\n");
    let unverified = write("unverified.json", r#"{"rows": [{"verified": false}]}"#);
    let vacuous = write("vacuous.json", r#"{"experiment": "x"}"#);
    let run = |files: &[&str]| {
        let out = repro(&[&["bench-check"], files].concat());
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    assert_eq!(run(&[&good]).0, Some(0));
    for bad in [&preamble, &unverified, &vacuous] {
        let (code, stdout) = run(&[&good, bad]);
        assert_eq!(code, Some(1), "{stdout}");
        assert!(stdout.contains(&format!("FAIL {bad}")), "{stdout}");
    }
    let (code, stdout) = run(&[&dir.join("missing.json").to_string_lossy()]);
    assert_eq!(code, Some(1), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
