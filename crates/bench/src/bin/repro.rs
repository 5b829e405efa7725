//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [options]
//!
//! experiments:
//!   table1        Table I   strategy counts
//!   table2        Table II  example strategy QoS (+ §III.C.3 example)
//!   fig5          Fig. 5    utility of all strategies per Table III config
//!   estimation    §V.A.2    estimator vs virtual-time measurement
//!   fig6          Fig. 6    generated vs predefined strategies
//!   fig7          Fig. 7    generation scaling for M > 5
//!   table4        Table IV  testbed default vs generated
//!   fig8          Fig. 8    per-slot QoS under reliability drift
//!   ablations     design-choice ablations (k, window, cost, latency shapes)
//!   contention    §VII scarce-resource contention
//!   bench-synth   synthesis engine: baseline vs pruned/parallel exhaustive search
//!   bench-replan  slot re-planning: cold vs plan-cache
//!   bench-throughput  gateway concurrency: N clients, admission control, worker pool
//!   bench-fleet   sharded gateway fleet: consistent-hash routing, per-service plan caches
//!   bench-scenarios   adversarial scenario pack: storms, flash crowds, churn + QoS gate
//!   all           everything above
//!
//! options:
//!   --services N      random services per configuration   (default 100)
//!   --runs N          executions per strategy, estimation  (N ≥ 1, default 300)
//!   --strategies N    strategies validated, estimation     (default 100)
//!   --max-m N         largest M for fig7                   (default 10)
//!   --exhaustive-m N  largest M searched exhaustively      (default 6)
//!   --per-slot N      invocations per slot, table4/fig8    (default 100)
//!   --slots N         slots for fig8/bench-replan          (default 8)
//!   --latency-scale F testbed latency multiplier           (default 0.05)
//!   --seed N          RNG seed                             (default 2020)
//!   --reports DIR     report directory                     (default reports)
//!   --sweep           bench-throughput: 10^2..10^5 async-client sweep
//!   --max-clients N   largest sweep point / fleet clients  (default 100000)
//!   --shards N        bench-fleet: cap the shard sweep at [1, N]
//!   --quick           small preset for smoke runs
//! ```

use std::num::NonZeroU32;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Options {
    services: usize,
    runs: NonZeroU32,
    strategies: usize,
    max_m: usize,
    exhaustive_m: usize,
    per_slot: u32,
    slots: u32,
    latency_scale: f64,
    seed: u64,
    reports: PathBuf,
    sweep: bool,
    max_clients: usize,
    shards: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            services: 100,
            runs: NonZeroU32::new(300).expect("a positive literal"),
            strategies: 100,
            max_m: 10,
            exhaustive_m: 6,
            per_slot: 100,
            slots: 8,
            latency_scale: 0.05,
            seed: 2020,
            reports: PathBuf::from("reports"),
            sweep: false,
            max_clients: 100_000,
            shards: None,
        }
    }
}

impl Options {
    fn quick(mut self) -> Self {
        self.services = 10;
        self.runs = NonZeroU32::new(300).expect("a positive literal");
        self.strategies = 20;
        self.max_m = 8;
        self.exhaustive_m = 6;
        self.per_slot = 50;
        self.slots = 7;
        // Below ~1 ms the scheduler's sleep granularity distorts measured
        // latency, so quick mode keeps the default scale.
        self.latency_scale = 0.05;
        self
    }
}

fn parse(args: &[String]) -> Result<(Vec<String>, Options), String> {
    let mut experiments = Vec::new();
    let mut options = Options::default();
    let mut quick = false;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match arg.as_str() {
            "--services" => {
                options.services = value("--services")?
                    .parse()
                    .map_err(|e| format!("--services: {e}"))?
            }
            "--runs" => {
                options.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--strategies" => {
                options.strategies = value("--strategies")?
                    .parse()
                    .map_err(|e| format!("--strategies: {e}"))?
            }
            "--max-m" => {
                options.max_m = value("--max-m")?
                    .parse()
                    .map_err(|e| format!("--max-m: {e}"))?
            }
            "--exhaustive-m" => {
                options.exhaustive_m = value("--exhaustive-m")?
                    .parse()
                    .map_err(|e| format!("--exhaustive-m: {e}"))?
            }
            "--per-slot" => {
                options.per_slot = value("--per-slot")?
                    .parse()
                    .map_err(|e| format!("--per-slot: {e}"))?
            }
            "--slots" => {
                options.slots = value("--slots")?
                    .parse()
                    .map_err(|e| format!("--slots: {e}"))?
            }
            "--latency-scale" => {
                options.latency_scale = value("--latency-scale")?
                    .parse()
                    .map_err(|e| format!("--latency-scale: {e}"))?
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--reports" => options.reports = PathBuf::from(value("--reports")?),
            "--sweep" => options.sweep = true,
            "--max-clients" => {
                options.max_clients = value("--max-clients")?
                    .parse()
                    .map_err(|e| format!("--max-clients: {e}"))?
            }
            "--shards" => {
                options.shards = Some(
                    value("--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?,
                )
            }
            "--quick" => quick = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            experiment => experiments.push(experiment.to_string()),
        }
    }
    if quick {
        options = options.quick();
    }
    if experiments.is_empty() {
        return Err("no experiment named; try `repro all`".to_string());
    }
    Ok((experiments, options))
}

fn run_experiment(name: &str, options: &Options) -> std::io::Result<bool> {
    let reports = &options.reports;
    match name {
        "table1" => qce_bench::table1::run(reports)?,
        "table2" => qce_bench::table2::run(reports)?,
        "fig5" => qce_bench::fig5::run(reports, options.services, options.seed)?,
        "estimation" => {
            qce_bench::estimation::run(reports, options.strategies, options.runs, options.seed)?
        }
        "fig6" => qce_bench::fig6::run(reports, options.services, options.seed)?,
        "fig7" => qce_bench::fig7::run(
            reports,
            options.services.min(20),
            options.max_m,
            options.exhaustive_m,
            options.seed,
        )?,
        "table4" => qce_bench::table4::run(reports, options.per_slot, options.latency_scale)?,
        "fig8" => qce_bench::fig8::run(
            reports,
            options.slots,
            options.per_slot,
            options.latency_scale,
        )?,
        "ablations" => {
            qce_bench::ablation::run(reports, options.per_slot.min(50), options.latency_scale)?
        }
        "contention" => qce_bench::contention::run(reports, 6, options.per_slot.min(30))?,
        "bench-synth" => qce_bench::synth::run(
            reports,
            std::path::Path::new("BENCH_synth.json"),
            options.exhaustive_m,
            options.services.min(10),
            options.seed,
        )?,
        "bench-replan" => qce_bench::replan::run(
            reports,
            std::path::Path::new("BENCH_replan.json"),
            options.exhaustive_m,
            options.slots as usize,
            options.seed,
        )?,
        "bench-throughput" => {
            if options.sweep {
                qce_bench::throughput::run_sweep(
                    reports,
                    std::path::Path::new("BENCH_throughput.json"),
                    options.max_clients,
                )?
            } else {
                qce_bench::throughput::run(
                    reports,
                    std::path::Path::new("BENCH_throughput.json"),
                    8,
                )?
            }
        }
        "bench-fleet" => qce_bench::fleet::run(
            reports,
            std::path::Path::new("BENCH_fleet.json"),
            options.max_clients,
            options.shards,
        )?,
        "bench-scenarios" => qce_bench::scenarios::run(
            reports,
            std::path::Path::new("BENCH_scenarios.json"),
            options.per_slot / 2,
        )?,
        _ => return Ok(false),
    }
    Ok(true)
}

const ALL: [&str; 15] = [
    "table1",
    "table2",
    "fig5",
    "estimation",
    "fig6",
    "fig7",
    "table4",
    "fig8",
    "ablations",
    "contention",
    "bench-synth",
    "bench-replan",
    "bench-throughput",
    "bench-fleet",
    "bench-scenarios",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (experiments, options) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: repro <table1|table2|fig5|estimation|fig6|fig7|table4|fig8|bench-synth|bench-replan|bench-throughput|bench-fleet|bench-scenarios|all> [options]"
            );
            return ExitCode::FAILURE;
        }
    };

    let list: Vec<&str> = if experiments.iter().any(|e| e == "all") {
        ALL.to_vec()
    } else {
        experiments.iter().map(String::as_str).collect()
    };

    for name in list {
        let started = std::time::Instant::now();
        match run_experiment(name, &options) {
            Ok(true) => {
                println!("[{name} completed in {:.1?}]\n", started.elapsed());
            }
            Ok(false) => {
                eprintln!("error: unknown experiment {name:?}");
                return ExitCode::FAILURE;
            }
            Err(error) => {
                eprintln!("error: {name} failed: {error}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("reports written to {}", options.reports.display());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let (experiments, options) = parse(&args(&["all"])).unwrap();
        assert_eq!(experiments, vec!["all".to_string()]);
        assert_eq!(options.services, 100);
        assert_eq!(options.seed, 2020);
    }

    #[test]
    fn parse_options_and_quick() {
        let (experiments, options) = parse(&args(&[
            "fig6",
            "fig7",
            "--services",
            "7",
            "--seed",
            "9",
            "--quick",
        ]))
        .unwrap();
        assert_eq!(experiments.len(), 2);
        // --quick overrides scale knobs but not the seed.
        assert_eq!(options.services, 10);
        assert_eq!(options.seed, 9);
    }

    #[test]
    fn parse_fleet_flags() {
        let (experiments, options) = parse(&args(&[
            "bench-fleet",
            "--shards",
            "4",
            "--max-clients",
            "1000",
        ]))
        .unwrap();
        assert_eq!(experiments, vec!["bench-fleet".to_string()]);
        assert_eq!(options.shards, Some(4));
        assert_eq!(options.max_clients, 1000);
        let (_, options) = parse(&args(&["bench-fleet"])).unwrap();
        assert_eq!(options.shards, None, "full 1/8/32 sweep by default");
        assert!(parse(&args(&["bench-fleet", "--shards", "x"])).is_err());
        assert!(parse(&args(&["bench-fleet", "--shards"])).is_err());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&args(&[])).is_err());
        assert!(parse(&args(&["--services"])).is_err());
        assert!(parse(&args(&["--bogus", "1"])).is_err());
        assert!(parse(&args(&["fig5", "--services", "many"])).is_err());
    }

    #[test]
    fn unknown_experiment_is_reported() {
        let options = Options::default().quick();
        assert!(!run_experiment("nonsense", &options).unwrap());
    }

    #[test]
    fn all_list_covers_every_dispatch_arm() {
        // Guard against adding an experiment to the dispatcher but not to
        // `ALL` (or vice versa): every ALL entry must dispatch.
        for name in ALL {
            assert_ne!(name, "all");
        }
        assert_eq!(ALL.len(), 15);
    }
}
