//! `speck-ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]`
//!
//! Runs one workload and prints a human-readable report followed by a
//! one-line JSON result. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` runs the separate traced replay for the per-layer metrics
//! and writes its spans to `--spans` (default `out/spans-<workload>-<seed>.json`
//! in the benchmark directory). Exits non-zero when any check fails.

use speck_ledger::workloads::{Kind, Workload};
use speck_ledger::{timed, traced};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut spans) =
        (None, DEFAULT_SEED, 20.0, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must lie in (0, 60], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
            eprintln!(
                "{msg}\nusage: speck-ledger --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    speck_ledger::host::pin_allocator();
    let w = Workload::new(args.kind, args.seed);
    let outcome = if args.trace {
        let spans = args.spans.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-{}.json", args.kind.name(), args.seed))
        });
        traced::run(&w, args.seconds, Some(&spans))
    } else {
        timed::run(&w, args.seconds)
    };
    print!("{}", outcome.report);
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
