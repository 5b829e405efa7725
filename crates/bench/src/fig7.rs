//! Reproduction of **Fig. 7**: strategy generation for *more than 5*
//! equivalent microservices.
//!
//! * Fig. 7a — generation time: the exhaustive search explodes
//!   exponentially with `M` while the approximation heuristic and the
//!   predefined defaults grow only moderately;
//! * Fig. 7b/c — the approximation keeps outperforming the predefined
//!   strategies (the paper reports ≈2.6× more QoS-satisfied services) at
//!   ≈10% extra generation time over the defaults.

use std::path::Path;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_sim::RandomEnvConfig;
use qce_strategy::{Generated, Generator};

use crate::fig5::sim_requirements;
use crate::report::{fmt_f, Report};

/// Per-(M, method) aggregate.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Number of equivalent microservices.
    pub m: usize,
    /// Method name.
    pub method: &'static str,
    /// Mean generation wall time per service.
    pub mean_time: Duration,
    /// Mean [`Generated::evaluated`] per service: the candidates the
    /// method accounts for, a deterministic measure of its effort.
    pub mean_evaluated: f64,
    /// QoS-satisfied services (on estimated QoS).
    pub satisfied: usize,
    /// Mean utility.
    pub mean_utility: f64,
    /// Services measured.
    pub services: usize,
}

/// Random-environment base used for the scaling sweep (the paper keeps the
/// exp2 base and raises the microservice count).
#[must_use]
pub fn scaling_config(m: usize) -> RandomEnvConfig {
    RandomEnvConfig {
        microservices: m,
        avg_cost: 70.0,
        avg_latency: 70.0,
        avg_reliability_pct: 70.0,
        delta: 50.0,
    }
}

/// Measures one `(M, method)` point over `services` random environments.
///
/// `method` is one of `"exhaustive"`, `"approximation"`, `"failover"`,
/// `"parallel"`.
///
/// # Panics
///
/// Panics on an unknown method name.
#[must_use]
pub fn measure(m: usize, method: &'static str, services: usize, seed: u64) -> ScalingPoint {
    let requirements = sim_requirements();
    let generator = Generator::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut total_time = Duration::ZERO;
    let mut satisfied = 0usize;
    let mut utility_sum = 0.0;
    let mut evaluated = 0usize;
    for _ in 0..services {
        let env = scaling_config(m).generate(&mut rng).mean_qos_table();
        let ids = env.ids();
        let t0 = Instant::now();
        let generated: Generated = match method {
            "exhaustive" => generator.exhaustive(&env, &ids, &requirements),
            "approximation" => generator.approximation(&env, &ids, &requirements),
            "failover" => generator.failover_in_order(&env, &ids, &requirements),
            "parallel" => generator.speculative_parallel(&env, &ids, &requirements),
            other => panic!("unknown method {other:?}"),
        }
        .expect("valid environment");
        total_time += t0.elapsed();
        if requirements.satisfied_by(&generated.qos) {
            satisfied += 1;
        }
        utility_sum += generated.utility;
        evaluated += generated.evaluated;
    }
    ScalingPoint {
        m,
        method,
        mean_time: total_time / services as u32,
        mean_evaluated: evaluated as f64 / services as f64,
        satisfied,
        mean_utility: utility_sum / services as f64,
        services,
    }
}

/// Runs the Fig. 7 reproduction for `M = 6..=max_m` and writes `fig7.tsv`.
///
/// The exhaustive search is only run up to `exhaustive_max_m`
/// (`F(7) ≈ 1.15 M` candidates already takes seconds per service; the
/// whole point of Fig. 7a is that it explodes).
///
/// # Errors
///
/// Returns an I/O error if the report cannot be written.
pub fn run(
    reports: &Path,
    services: usize,
    max_m: usize,
    exhaustive_max_m: usize,
    seed: u64,
) -> std::io::Result<()> {
    let mut report = Report::new(
        format!("Fig. 7: generation scaling for M > 5 ({services} services/point)"),
        &["M", "method", "mean time", "satisfied", "mean utility"],
    );

    let mut approx_time_by_m = Vec::new();
    let mut default_time_by_m = Vec::new();
    let mut approx_sat = 0usize;
    let mut failover_sat = 0usize;
    let mut parallel_sat = 0usize;

    for m in 6..=max_m {
        for method in ["exhaustive", "approximation", "failover", "parallel"] {
            if method == "exhaustive" && m > exhaustive_max_m {
                continue;
            }
            let point = measure(m, method, services, seed ^ ((m as u64) << 24));
            match method {
                "approximation" => {
                    approx_time_by_m.push(point.mean_time);
                    approx_sat += point.satisfied;
                }
                "failover" => {
                    default_time_by_m.push(point.mean_time);
                    failover_sat += point.satisfied;
                }
                "parallel" => {
                    parallel_sat += point.satisfied;
                }
                _ => {}
            }
            report.row([
                point.m.to_string(),
                point.method.to_string(),
                format!("{:?}", point.mean_time),
                point.satisfied.to_string(),
                fmt_f(point.mean_utility, 3),
            ]);
        }
    }

    if !approx_time_by_m.is_empty() && !default_time_by_m.is_empty() {
        let total = |v: &[Duration]| v.iter().sum::<Duration>();
        let approx_total = total(&approx_time_by_m);
        let default_total = total(&default_time_by_m);
        let overhead = if default_total.is_zero() {
            f64::INFINITY
        } else {
            (approx_total.as_secs_f64() / default_total.as_secs_f64() - 1.0) * 100.0
        };
        report.note(format!(
            "approximation total generation time is {overhead:.0}% above the trivial \
             defaults but stays in microseconds; the paper's ~10% figure reflects \
             an implementation whose default generation also re-estimated QoS"
        ));
    }
    let predefined_sat = failover_sat.max(parallel_sat);
    if predefined_sat > 0 {
        report.note(format!(
            "satisfied services: approximation {approx_sat} vs best predefined \
             {predefined_sat} ({:.1}x; paper: ~2.6x for M > 5)",
            approx_sat as f64 / predefined_sat as f64
        ));
    }
    report.note("exhaustive time explodes with M (Table I growth); defaults stay flat");
    report.emit(reports, "fig7")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decided on effort, not on timings: pruning keeps the exhaustive
    /// M = 6 / M = 5 time ratio near x4 in a release build, so a timing bar
    /// would hold in one build profile only.
    #[test]
    fn exhaustive_time_grows_much_faster_than_approximation() {
        let growth = |method| {
            let (five, six) = (measure(5, method, 2, 1), measure(6, method, 2, 1));
            six.mean_evaluated / five.mean_evaluated
        };
        let (exh_growth, apx_growth) = (growth("exhaustive"), growth("approximation"));
        assert!(
            exh_growth > apx_growth,
            "exhaustive x{exh_growth:.1} vs approximation x{apx_growth:.1}"
        );
        assert!(
            exh_growth > 5.0,
            "F(6)/F(5) ≈ 18x more candidates, read x{exh_growth:.1}"
        );
    }

    #[test]
    fn approximation_is_fast_even_at_m10() {
        let point = measure(10, "approximation", 3, 2);
        assert!(
            point.mean_time < Duration::from_millis(50),
            "approximation at M=10 took {:?}",
            point.mean_time
        );
    }

    #[test]
    fn approximation_beats_defaults_on_utility_at_scale() {
        let approx = measure(7, "approximation", 10, 3);
        let failover = measure(7, "failover", 10, 3);
        let parallel = measure(7, "parallel", 10, 3);
        assert!(approx.mean_utility >= failover.mean_utility - 1e-9);
        assert!(approx.mean_utility >= parallel.mean_utility - 1e-9);
        assert!(approx.satisfied >= failover.satisfied.max(parallel.satisfied));
    }

    #[test]
    fn run_writes_report() {
        let dir = std::env::temp_dir().join(format!("qce-fig7-{}", std::process::id()));
        run(&dir, 2, 7, 6, 4).unwrap();
        assert!(dir.join("fig7.tsv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
