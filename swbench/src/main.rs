//! `swbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one metadata line, then the result line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1`, the per-layer
//! ledger. Exits nonzero on a usage error or when any check failed.

use std::process::ExitCode;

use swbench::bench::{self, Workload};
use swbench::report::result_line;

/// Where traced runs write their spans, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(why: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("swbench: {why}");
    eprintln!(
        "usage: swbench --workload <{}> --seed <u64> --seconds <1..=3600> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed {value:?}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1.0..=3600.0).contains(&s) {
                    return Err(format!("seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(why) => return usage(&why),
    };
    let out = std::path::Path::new(OUT_DIR);
    let r = match (args.workload, args.trace) {
        (Workload::StoreQuery, false) => bench::store_e2e(args.seed, args.seconds),
        (Workload::StoreQuery, true) => bench::store_traced(args.seed, args.seconds, out),
        (w, false) => bench::session_e2e(w, args.seed, args.seconds),
        (w, true) => bench::session_traced(w, args.seed, args.seconds, out),
    };
    let meta: Vec<String> = r.meta.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"meta\": {{{}}}}}", meta.join(", "));
    println!("{}", result_line(r.correct, r.attempted.max(1), r.failed, &r.metrics));
    if r.correct && r.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
