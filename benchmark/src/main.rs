//! `qce-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! [--quick] [--out FILE]`, or `qce-benchmark compare A.jsonl B.jsonl`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qce_benchmark::report;
use qce_benchmark::run::{run, RunArgs};
use qce_benchmark::workloads::WORKLOADS;

const USAGE: &str = "usage: qce-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--out FILE]\n       qce-benchmark compare BASE.jsonl CHANGE.jsonl";

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 2020,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: None,
        break_oracle: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or("--seconds takes a number in (0, 120]")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            // Self-test hook (tests/cli.rs): a deliberately wrong oracle.
            "--break-oracle" => parsed.break_oracle = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == parsed.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "--workload must be one of {}\n{USAGE}",
            names.join(", ")
        ));
    }
    if parsed.quick && parsed.out.is_some() {
        return Err("--quick results are never written as baselines (drop --out)".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, change] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match report::compare(Path::new(base), Path::new(change)) {
            Ok((text, ok)) => {
                print!("{text}");
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(error) => {
                eprintln!("compare: {error}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(outcome) => {
            report::print(&outcome);
            if let Some(path) = &parsed.out {
                if let Err(error) = report::append(path, &outcome) {
                    eprintln!("could not append to {}: {error}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("{error}");
            ExitCode::from(2)
        }
    }
}
