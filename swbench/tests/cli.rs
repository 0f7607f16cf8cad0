//! The command line fails loudly on anything it does not understand.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_swbench")).args(args).output().expect("binary runs")
}

#[test]
fn unknown_workloads_and_flags_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "catalog-mix", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--workload", "catalog-mix", "--seed", "1", "--seconds", "1", "--trace", "0", "--x", "1"],
        &["--workload", "catalog-mix", "--seed", "1", "--seconds", "1"],
        &["--workload", "catalog-mix", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "catalog-mix", "--seed", "1", "--seconds", "0", "--trace", "0"],
        &["--workload"],
        &[],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
