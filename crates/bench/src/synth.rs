//! `bench-synth` — before/after benchmark of the parallel, pruned
//! synthesis engine in `qce-strategy`.
//!
//! For each `M = 3..=max_m` the harness draws seeded random environments
//! (`random` tables), derives a second family from the same draw with
//! `⌊M/2⌋` legs at reliability exactly 1.0 (`reliable_legs` — what a
//! collector window without a failure reports, and where whole sub-trees
//! of the search space tie bit for bit), and runs the exhaustive search
//! over each family four ways:
//!
//! * **baseline** — the pre-engine code path: plain Algorithm 1 behind the
//!   [`Estimator`] trait with `is_algorithm1() == false`, which routes the
//!   [`Generator`] onto the sequential enumerate-and-estimate scan the
//!   crate shipped before the engine existed;
//! * **engine/seq/unpruned** — the streaming engine, one worker, no
//!   branch-and-bound;
//! * **engine/seq** — one worker with pruning;
//! * **engine/par** — pruning plus auto parallelism.
//!
//! Every engine run is checked **bit-for-bit** against the baseline
//! (strategy, utility bits, candidate count); any divergence aborts the
//! run with a nonzero exit, which is what the CI `bench-smoke` job keys
//! on. Timings are written to `bench_synth.tsv` and, as machine-readable
//! before/after numbers, to `BENCH_synth.json`.
//!
//! Every `(M, tables)` point gets fresh generators, so each
//! configuration's first search also builds its candidate-family cache:
//! the *mean* time includes that one cold search. The *warm* time, what a
//! gateway's planner pays from its second re-plan on, is the median over
//! repeated passes of a pass's mean search time once the cache is built
//! (the first pass's searches 2..n, then each further pass).

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_strategy::estimate::estimate;
use qce_strategy::{
    EnvQos, EstimateError, Estimator, Generated, Generator, Qos, Reliability, Requirements,
    Strategy,
};

use crate::fig5::sim_requirements;
use crate::fig7::scaling_config;
use crate::report::{fmt_f, Report};

/// Plain (memo-free) Algorithm 1 behind the [`Estimator`] trait.
///
/// `is_algorithm1` deliberately keeps its default `false` answer: the
/// [`Generator`] then cannot use the fused synthesis engine and falls back
/// to the generic enumerate-and-estimate scan — the exact sequential
/// search the crate shipped before this engine existed — which makes this
/// estimator the "before" configuration of the benchmark.
#[derive(Debug, Default, Clone, Copy)]
pub struct LegacyBaseline;

impl Estimator for LegacyBaseline {
    fn estimate(&self, strategy: &Strategy, env: &EnvQos) -> Result<Qos, EstimateError> {
        estimate(strategy, env)
    }

    fn name(&self) -> &'static str {
        "legacy-baseline"
    }
}

/// Aggregate of one `(M, configuration)` benchmark point.
#[derive(Debug, Clone)]
pub struct SynthPoint {
    /// Number of equivalent microservices.
    pub m: usize,
    /// Table family: `random` or `reliable_legs`.
    pub tables: &'static str,
    /// Configuration name.
    pub config: &'static str,
    /// Mean wall time per exhaustive search, the first (cold) one included.
    pub mean_time: Duration,
    /// Median over warm passes of a pass's mean time per search (module docs).
    pub warm_time: Duration,
    /// Candidates considered per search (estimated plus pruned; this is
    /// `F(M)` for the full exhaustive search).
    pub candidates: usize,
    /// Candidates actually estimated, summed over all environments.
    pub seen: u64,
    /// Candidates discharged by the branch-and-bound bound, summed over
    /// all environments.
    pub pruned: u64,
}

/// Warm passes timed per point: at least `MIN_WARM_PASSES`, then more
/// while the further passes stay inside `WARM_BUDGET`, up to
/// `MAX_WARM_PASSES`.
const MIN_WARM_PASSES: usize = 3;
const MAX_WARM_PASSES: usize = 15;
const WARM_BUDGET: Duration = Duration::from_millis(5);

/// Runs `generator.exhaustive` over every environment and returns the
/// first pass's results, its mean wall time per search, and the warm time
/// (see the module docs).
fn measure(
    generator: &Generator,
    envs: &[EnvQos],
    req: &Requirements,
) -> (Vec<Generated>, Duration, Duration) {
    let ids: Vec<_> = envs.iter().map(EnvQos::ids).collect();
    let pass = || -> (Vec<Generated>, Vec<Duration>) {
        envs.iter()
            .zip(&ids)
            .map(|(env, ids)| {
                let started = Instant::now();
                let generated = generator
                    .exhaustive(env, ids, req)
                    .expect("random environments are valid");
                (generated, started.elapsed())
            })
            .unzip()
    };
    let mean = |times: &[Duration]| {
        times.iter().sum::<Duration>() / u32::try_from(times.len().max(1)).unwrap_or(1)
    };
    let (out, first) = pass();
    let mut warm = vec![mean(if first.len() > 1 { &first[1..] } else { &first })];
    let started = Instant::now();
    while warm.len() < MIN_WARM_PASSES
        || (warm.len() < MAX_WARM_PASSES && started.elapsed() < WARM_BUDGET)
    {
        warm.push(mean(&pass().1));
    }
    warm.sort_unstable();
    (out, mean(&first), warm[warm.len() / 2])
}

/// `env` with its first `legs` microservices at reliability exactly 1.0.
fn with_reliable_legs(env: &EnvQos, legs: usize) -> EnvQos {
    env.iter()
        .map(|(id, &qos)| {
            let reliability = if id.index() < legs {
                Reliability::ALWAYS
            } else {
                qos.reliability
            };
            Qos { reliability, ..qos }
        })
        .collect()
}

/// Verifies that an engine configuration reproduced the baseline search
/// exactly on every environment: same strategy, same utility bits, same
/// candidate count.
fn check_equivalent(
    m: usize,
    tables: &str,
    config: &str,
    baseline: &[Generated],
    engine: &[Generated],
) -> io::Result<()> {
    for (i, (b, e)) in baseline.iter().zip(engine).enumerate() {
        if b.strategy != e.strategy
            || b.utility.to_bits() != e.utility.to_bits()
            || b.evaluated != e.evaluated
        {
            return Err(io::Error::other(format!(
                "EQUIVALENCE DIVERGENCE at M={m}, {tables} env #{i}, config {config}: \
                 baseline chose {} (utility {}, {} candidates) but engine chose \
                 {} (utility {}, {} candidates)",
                b.strategy, b.utility, b.evaluated, e.strategy, e.utility, e.evaluated
            )));
        }
    }
    Ok(())
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the synthesis-engine benchmark for `M = 3..=max_m` over `services`
/// seeded environments per point, writes `bench_synth.tsv` under `reports`
/// and the before/after timings to `json_out`.
///
/// # Errors
///
/// Returns an error if a report cannot be written — or, deliberately, if
/// any engine configuration diverges from the unpruned sequential baseline
/// on any environment (the CI smoke job relies on this exit code).
pub fn run(
    reports: &Path,
    json_out: &Path,
    max_m: usize,
    services: usize,
    seed: u64,
) -> io::Result<()> {
    let max_m = max_m.max(3);
    let services = services.max(1);
    let requirements = sim_requirements();

    let mut report = Report::new(
        format!(
            "bench-synth: exhaustive search, baseline vs engine \
             ({services} environments/point)"
        ),
        &[
            "M",
            "tables",
            "config",
            "mean time",
            "warm mean",
            "speedup",
            "candidates",
            "estimated",
            "pruned",
        ],
    );

    let mut json_points = Vec::new();
    let mut final_speedup = None;
    for m in 3..=max_m {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((m as u64) << 32));
        let random: Vec<EnvQos> = (0..services)
            .map(|_| scaling_config(m).generate(&mut rng).mean_qos_table())
            .collect();
        let reliable_legs: Vec<EnvQos> = random
            .iter()
            .map(|env| with_reliable_legs(env, m / 2))
            .collect();
        for (tables, envs) in [("random", &random), ("reliable_legs", &reliable_legs)] {
            let engine = |workers: usize, pruning: bool| {
                Generator::builder()
                    .parallelism(workers)
                    .pruning(pruning)
                    .build()
            };
            let baseline = Generator::builder()
                .estimator(Arc::new(LegacyBaseline))
                .parallelism(1)
                .build();
            let runs = [
                ("baseline", measure(&baseline, envs, &requirements)),
                (
                    "engine/seq/unpruned",
                    measure(&engine(1, false), envs, &requirements),
                ),
                ("engine/seq", measure(&engine(1, true), envs, &requirements)),
                ("engine/par", measure(&engine(0, true), envs, &requirements)),
            ];
            let (base, base_time, _) = &runs[0].1;
            for (config, (results, ..)) in &runs[1..] {
                check_equivalent(m, tables, config, base, results)?;
            }

            let speedup = |t: Duration| millis(*base_time) / millis(t).max(1e-9);
            let points = runs
                .each_ref()
                .map(|(config, (results, mean_time, warm_time))| SynthPoint {
                    m,
                    tables,
                    config,
                    mean_time: *mean_time,
                    warm_time: *warm_time,
                    candidates: results.first().map_or(0, |g| g.evaluated),
                    seen: results.iter().map(|g| g.report.candidates_seen).sum(),
                    pruned: results.iter().map(|g| g.report.candidates_pruned).sum(),
                });
            for p in &points {
                report.row([
                    p.m.to_string(),
                    p.tables.to_string(),
                    p.config.to_string(),
                    format!("{:.3?}", p.mean_time),
                    format!("{:.3?}", p.warm_time),
                    format!("{:.1}x", speedup(p.mean_time)),
                    p.candidates.to_string(),
                    p.seen.to_string(),
                    p.pruned.to_string(),
                ]);
            }
            let [base_p, unpruned_p, seq_p, par_p] = &points;
            if tables == "random" {
                final_speedup = Some(speedup(par_p.mean_time));
            }
            json_points.push(format!(
                "    {{\"m\": {m}, \"tables\": \"{tables}\", \"candidates\": {}, \
                 \"baseline_ms\": {}, \"engine_seq_unpruned_ms\": {}, \
                 \"engine_seq_ms\": {}, \"engine_seq_warm_ms\": {}, \
                 \"engine_par_ms\": {}, \"speedup_seq\": {}, \"speedup_par\": {}, \
                 \"estimated\": {}, \"pruned\": {}}}",
                base_p.candidates,
                fmt_f(millis(base_p.mean_time), 4),
                fmt_f(millis(unpruned_p.mean_time), 4),
                fmt_f(millis(seq_p.mean_time), 4),
                fmt_f(millis(seq_p.warm_time), 4),
                fmt_f(millis(par_p.mean_time), 4),
                fmt_f(speedup(seq_p.mean_time), 2),
                fmt_f(speedup(par_p.mean_time), 2),
                par_p.seen,
                par_p.pruned,
            ));
        }
    }

    if let Some(speedup) = final_speedup {
        report.note(format!(
            "engine/par speedup over the pre-engine sequential scan at M={max_m}, random \
             tables: {speedup:.1}x (target: >=5x at M=6)"
        ));
    }
    report.note("every engine run verified bit-identical to the baseline search");
    report.note(
        "fresh generators per (M, tables): 'mean time' includes each configuration's first \
         (cold, cache-building) search, 'warm mean' is the median over warm passes \
         (searches 2..n, then whole repeat passes) of a pass's mean",
    );
    report.emit(reports, "bench_synth")?;

    let json = format!(
        "{{\n  \"benchmark\": \"bench-synth\",\n  \"seed\": {seed},\n  \
         \"environments_per_point\": {services},\n  \"points\": [\n{}\n  ]\n}}\n",
        json_points.join(",\n")
    );
    if let Some(parent) = json_out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(json_out, json)?;
    println!("before/after timings written to {}", json_out.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_baseline_is_plain_algorithm1() {
        let env = EnvQos::from_triples(&[(50.0, 50.0, 0.6), (100.0, 100.0, 0.6)]).unwrap();
        let s = Strategy::parse("a*b").unwrap();
        let legacy = LegacyBaseline.estimate(&s, &env).unwrap();
        assert_eq!(legacy, estimate(&s, &env).unwrap());
        assert!(!LegacyBaseline.is_algorithm1());
    }

    #[test]
    fn engine_configs_match_baseline_on_small_m() {
        let requirements = sim_requirements();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let envs: Vec<EnvQos> = (0..4)
            .map(|_| scaling_config(4).generate(&mut rng).mean_qos_table())
            .collect();
        let baseline = Generator::builder()
            .estimator(Arc::new(LegacyBaseline))
            .parallelism(1)
            .build();
        let engine = Generator::builder().parallelism(2).pruning(true).build();
        let (base, ..) = measure(&baseline, &envs, &requirements);
        let (eng, ..) = measure(&engine, &envs, &requirements);
        check_equivalent(4, "random", "engine/par", &base, &eng).unwrap();
        assert_eq!(base[0].evaluated, 195, "F(4)");
    }

    #[test]
    fn reliable_legs_touch_only_the_first_legs_reliability() {
        let env =
            EnvQos::from_triples(&[(50.0, 50.0, 0.6), (100.0, 100.0, 0.6), (150.0, 150.0, 0.7)])
                .unwrap();
        let expect =
            EnvQos::from_triples(&[(50.0, 50.0, 1.0), (100.0, 100.0, 0.6), (150.0, 150.0, 0.7)])
                .unwrap();
        assert_eq!(with_reliable_legs(&env, 3 / 2), expect);
    }

    #[test]
    fn run_writes_report_and_json() {
        let dir = std::env::temp_dir().join(format!("qce-synth-{}", std::process::id()));
        let json = dir.join("BENCH_synth.json");
        run(&dir, &json, 4, 2, 5).unwrap();
        assert!(dir.join("bench_synth.tsv").exists());
        let text = std::fs::read_to_string(&json).unwrap();
        assert!(text.contains("\"m\": 3"));
        assert!(text.contains("\"candidates\": 19"));
        assert!(text.contains("\"candidates\": 195"));
        for tables in ["random", "reliable_legs"] {
            assert_eq!(
                text.matches(&format!("\"tables\": \"{tables}\"")).count(),
                2
            );
        }
        assert_eq!(text.matches("\"engine_seq_warm_ms\": ").count(), 4);
        let tsv = std::fs::read_to_string(dir.join("bench_synth.tsv")).unwrap();
        assert!(tsv.contains("M\ttables\tconfig\tmean time\twarm mean\t"));
        assert_eq!(tsv.matches("\treliable_legs\tengine/seq\t").count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
