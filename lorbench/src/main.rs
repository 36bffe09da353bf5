//! Command line:
//!
//! ```text
//! lorbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! Prints the check verdicts and every metric by name with its unit, then,
//! as the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced).  A traced run also writes its spans to
//! `<trace-dir>/<workload>-seed<n>.tsv`.

use std::path::PathBuf;
use std::process::ExitCode;

use lorbench::episode::{workload, Shape, WORKLOADS};
use lorbench::run::{result_json, run};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_dir = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(secs);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let default_dir = || {
        PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "lorbench/target".into()),
        )
        .join("lorbench-trace")
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        trace_dir: trace_dir.unwrap_or_else(default_dir),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("lorbench: {message}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload(&args.workload) else {
        eprintln!(
            "lorbench: unknown workload {:?}; expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };

    let run = run(&workload, args.seed, args.seconds, args.trace);
    print!("{}", run.verdicts(workload.name));
    let (attempted, failed) = run.tally();
    println!(
        "error_rate {} (failed {failed} of {attempted} ops)",
        failed as f64 / attempted.max(1) as f64
    );
    if let Shape::Fleet(_) = workload.shape {
        println!(
            "open loop: arrivals are scheduled in simulated time before the run, \
             so the generator is never late; latency counts from the scheduled arrival"
        );
    }
    let metrics = if args.trace {
        let path = args
            .trace_dir
            .join(format!("{}-seed{}.tsv", workload.name, args.seed));
        let written = std::fs::create_dir_all(&args.trace_dir).and_then(|()| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            run.write_spans(&mut out)?;
            std::io::Write::flush(&mut out)
        });
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(err) => eprintln!(
                "lorbench: writing spans to {} failed: {err}",
                path.display()
            ),
        }
        run.per_layer()
    } else {
        run.end_to_end()
    };
    for metric in &metrics {
        let note = match metric.name.strip_prefix("p99_ms.") {
            Some(sub) => run
                .end_to_end_samples(sub)
                .map(|n| format!("  (n = {n})"))
                .unwrap_or_default(),
            None => String::new(),
        };
        println!(
            "{:<28} {:>16.6} {}{note}",
            metric.name, metric.value, metric.unit
        );
    }
    println!(
        "{}",
        result_json(run.correct(), attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
