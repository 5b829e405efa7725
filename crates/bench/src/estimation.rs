//! Reproduction of the **estimation-correctness** experiment
//! (Section V.A.2): randomly select strategies, execute each 300 times, and
//! compare the measured average QoS against the Algorithm 1 estimate. The
//! paper reports relative errors below 1%.
//!
//! The paper imitates latency with `system.sleep` and uses seconds as the
//! unit to drown out scheduler noise; our virtual-time executor has no
//! scheduler noise at all, so the only error source is Monte-Carlo sampling
//! (which shrinks with the number of runs).

use std::num::NonZeroU32;
use std::path::Path;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_sim::{relative_error_pct, simulate, RandomEnvConfig};
use qce_strategy::enumerate::StrategySampler;
use qce_strategy::estimate::estimate_folding;
use qce_strategy::{Algorithm1, Estimator, IdSet, MsId};

use crate::report::{fmt_f, Report};

/// Outcome of validating one strategy.
#[derive(Debug, Clone)]
pub struct Validation {
    /// The strategy rendered as text.
    pub strategy: String,
    /// Relative latency error (percent) of Algorithm 1.
    pub latency_err_pct: f64,
    /// Relative cost error (percent) of Algorithm 1.
    pub cost_err_pct: f64,
    /// Absolute reliability error of Algorithm 1.
    pub reliability_err: f64,
    /// Relative latency error (percent) of the folding baseline.
    pub folding_latency_err_pct: f64,
}

/// Validates `strategies` random strategies (each measured over `runs`
/// virtual executions) against Algorithm 1 and the folding baseline.
#[must_use]
pub fn validate(strategies: usize, runs: NonZeroU32, seed: u64) -> Vec<Validation> {
    validate_with(&Algorithm1::new(), strategies, runs, seed)
}

/// [`validate`] parameterized over the estimator under test: the table's
/// "Alg.1" columns report whatever `estimator` computes, so alternative
/// [`Estimator`] implementations can be validated against the same
/// virtual-time measurements.
#[must_use]
pub(crate) fn validate_with(
    estimator: &dyn Estimator,
    strategies: usize,
    runs: NonZeroU32,
    seed: u64,
) -> Vec<Validation> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(strategies);
    for i in 0..strategies {
        // Random size 2–5, random environment from the exp2 base config.
        let m = 2 + i % 4;
        let ids: Vec<MsId> = (0..m).map(MsId).collect();
        let strategy = IdSet::new(&ids)
            .and_then(StrategySampler::new)
            .expect("2 to 5 distinct ids")
            .sample(&mut rng);
        let env = RandomEnvConfig {
            microservices: m,
            avg_cost: 70.0,
            avg_latency: 70.0,
            avg_reliability_pct: 70.0,
            delta: 50.0,
        }
        .generate(&mut rng);
        let table = env.mean_qos_table();
        let est = estimator
            .estimate(&strategy, &table)
            .expect("environment covers ids");
        let folded = estimate_folding(&strategy, &table).expect("environment covers ids");
        let measured = simulate(&strategy, &env, runs, &mut rng).expect("simulates");
        out.push(Validation {
            strategy: strategy.to_string(),
            latency_err_pct: relative_error_pct(measured.mean_latency, est.latency),
            cost_err_pct: relative_error_pct(measured.mean_cost, est.cost),
            reliability_err: (measured.success_rate - est.reliability.value()).abs(),
            folding_latency_err_pct: relative_error_pct(measured.mean_latency, folded.latency),
        });
    }
    out
}

/// Runs the estimation-correctness reproduction and writes
/// `estimation.tsv`.
///
/// `runs` is the number of executions per strategy; the paper uses 300,
/// which with Monte-Carlo noise alone yields mean errors around 1–3%;
/// larger values show convergence.
///
/// # Errors
///
/// Returns an I/O error if the report cannot be written.
pub fn run(reports: &Path, strategies: usize, runs: NonZeroU32, seed: u64) -> std::io::Result<()> {
    let validations = validate(strategies, runs, seed);
    let mean = |f: &dyn Fn(&Validation) -> f64| {
        validations.iter().map(f).sum::<f64>() / validations.len() as f64
    };
    let max = |f: &dyn Fn(&Validation) -> f64| validations.iter().map(f).fold(0.0f64, f64::max);

    let mut report = Report::new(
        format!("Estimation correctness: {strategies} random strategies x {runs} executions"),
        &["metric", "mean", "max"],
    );
    report.row([
        "Alg.1 latency error %".to_string(),
        fmt_f(mean(&|v| v.latency_err_pct), 3),
        fmt_f(max(&|v| v.latency_err_pct), 3),
    ]);
    report.row([
        "Alg.1 cost error %".to_string(),
        fmt_f(mean(&|v| v.cost_err_pct), 3),
        fmt_f(max(&|v| v.cost_err_pct), 3),
    ]);
    report.row([
        "Alg.1 reliability error (abs)".to_string(),
        fmt_f(mean(&|v| v.reliability_err), 4),
        fmt_f(max(&|v| v.reliability_err), 4),
    ]);
    report.row([
        "folding [15] latency error %".to_string(),
        fmt_f(mean(&|v| v.folding_latency_err_pct), 3),
        fmt_f(max(&|v| v.folding_latency_err_pct), 3),
    ]);
    report.note("paper: Alg.1 errors < 1% at 300 runs (their unit trick == our virtual time)");
    report.note("folding errs much larger on parallel-heavy strategies (Section III.C.3)");
    report.emit(reports, "estimation")?;

    // The worked example at the paper's exact scale.
    let mut worked = Report::new(
        "a*b*c worked example at 300 runs (paper: measures 69.43 vs estimate 69.4)",
        &["quantity", "value"],
    );
    let env =
        qce_sim::Environment::from_triples(&[(1.0, 10.0, 0.1), (1.0, 90.0, 0.9), (1.0, 70.0, 0.7)])
            .expect("valid QoS");
    let strategy = qce_strategy::Strategy::parse("a*b*c").expect("valid expression");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Average many 300-run batches, mirroring how the paper repeats runs.
    let batches = 50;
    let mut batch_means = Vec::new();
    for _ in 0..batches {
        let stats = simulate(
            &strategy,
            &env,
            NonZeroU32::new(300).expect("a positive literal"),
            &mut rng,
        )
        .expect("simulates");
        batch_means.push(stats.mean_latency);
    }
    let grand = batch_means.iter().sum::<f64>() / batch_means.len() as f64;
    worked.row(["estimate (Alg.1)".to_string(), "69.40".to_string()]);
    worked.row([
        format!("measured (mean of {batches} x 300-run batches)"),
        fmt_f(grand, 2),
    ]);
    worked.emit(reports, "estimation_worked")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(n: u32) -> NonZeroU32 {
        NonZeroU32::new(n).unwrap()
    }

    #[test]
    fn errors_shrink_with_more_runs() {
        let coarse = validate(12, runs(300), 1);
        let fine = validate(12, runs(30_000), 1);
        let mean =
            |v: &[Validation]| v.iter().map(|x| x.latency_err_pct).sum::<f64>() / v.len() as f64;
        assert!(mean(&fine) < mean(&coarse) + 0.5, "convergence");
        assert!(
            mean(&fine) < 1.0,
            "high-run error under 1%: {}",
            mean(&fine)
        );
    }

    #[test]
    fn algorithm1_beats_folding_overall() {
        let v = validate(30, runs(10_000), 2);
        let alg1: f64 = v.iter().map(|x| x.latency_err_pct).sum();
        let folding: f64 = v.iter().map(|x| x.folding_latency_err_pct).sum();
        assert!(
            alg1 < folding,
            "Alg.1 total error {alg1:.2}% vs folding {folding:.2}%"
        );
    }

    #[test]
    fn reliability_error_is_small() {
        let v = validate(20, runs(10_000), 3);
        for x in &v {
            assert!(
                x.reliability_err < 0.02,
                "{}: {}",
                x.strategy,
                x.reliability_err
            );
        }
    }

    #[test]
    fn validate_with_memoizing_estimator_matches_default_path() {
        let default = validate(6, runs(300), 7);
        let explicit = validate_with(&Algorithm1::new(), 6, runs(300), 7);
        assert_eq!(default.len(), explicit.len());
        for (a, b) in default.iter().zip(&explicit) {
            assert_eq!(a.strategy, b.strategy);
            assert_eq!(a.latency_err_pct.to_bits(), b.latency_err_pct.to_bits());
            assert_eq!(a.cost_err_pct.to_bits(), b.cost_err_pct.to_bits());
        }
    }

    #[test]
    fn run_writes_reports() {
        let dir = std::env::temp_dir().join(format!("qce-est-{}", std::process::id()));
        run(&dir, 5, runs(300), 4).unwrap();
        assert!(dir.join("estimation.tsv").exists());
        assert!(dir.join("estimation_worked.tsv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
