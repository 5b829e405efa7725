//! Reproduction of **Fig. 6**: utilities of *generated* strategies
//! (exhaustive search and approximation heuristic) versus the *predefined*
//! patterns (fail-over, speculative parallel) across the Table III
//! configurations.
//!
//! The paper's findings to reproduce:
//!
//! * generated strategies clearly outperform the predefined ones
//!   (Fig. 6a–c);
//! * exhaustive and approximation produce strategies of comparable utility;
//! * the number of QoS-satisfied services roughly doubles under generation
//!   (Fig. 6d), and average utility rises (Fig. 6e);
//! * performance depends on the number of microservices and their average
//!   QoS, but not on the range Δ.

use std::path::Path;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_sim::{table3_configurations, RandomEnvConfig};
use qce_strategy::{Generated, Generator};

use crate::fig5::sim_requirements;
use crate::report::{fmt_f, Report};

/// The four strategy sources compared in Fig. 6.
pub const METHODS: [&str; 4] = [
    "exhaustive",
    "approximation",
    "failover (script order)",
    "parallel",
];

/// Per-configuration aggregate for one generation method.
#[derive(Debug, Clone, Copy, Default)]
pub struct MethodStats {
    /// Services whose chosen strategy satisfies every QoS requirement
    /// (judged on the estimated QoS, as in the paper).
    pub satisfied: usize,
    /// Sum of utilities (divide by services for the average).
    pub utility_sum: f64,
}

/// Result of running one Table III configuration.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// Experiment name (`exp1` …).
    pub exp: &'static str,
    /// 1-based configuration index within the experiment.
    pub cfg: usize,
    /// Stats per method, in [`METHODS`] order.
    pub stats: [MethodStats; 4],
    /// Number of simulated services.
    pub services: usize,
}

impl ConfigResult {
    /// `satisfied(generated) / satisfied(best predefined)`, the paper's
    /// headline ≈2× ratio. `None` when no predefined strategy satisfies any
    /// service.
    #[must_use]
    pub(crate) fn satisfaction_ratio(&self) -> Option<f64> {
        let generated = self.stats[0].satisfied.max(self.stats[1].satisfied);
        let predefined = self.stats[2].satisfied.max(self.stats[3].satisfied);
        (predefined > 0).then(|| generated as f64 / predefined as f64)
    }
}

/// Runs one configuration: `services` random environments, each planned by
/// all four methods.
#[must_use]
pub(crate) fn run_config(
    exp: &'static str,
    cfg: usize,
    config: &RandomEnvConfig,
    services: usize,
    seed: u64,
) -> ConfigResult {
    let requirements = sim_requirements();
    let generator = Generator::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut stats = [MethodStats::default(); 4];
    for _ in 0..services {
        let env = config.generate(&mut rng).mean_qos_table();
        let ids = env.ids();
        let outputs: [Generated; 4] = [
            generator
                .exhaustive(&env, &ids, &requirements)
                .expect("valid environment"),
            generator
                .approximation(&env, &ids, &requirements)
                .expect("valid environment"),
            generator
                .failover_in_order(&env, &ids, &requirements)
                .expect("valid environment"),
            generator
                .speculative_parallel(&env, &ids, &requirements)
                .expect("valid environment"),
        ];
        for (slot, generated) in stats.iter_mut().zip(outputs) {
            if requirements.satisfied_by(&generated.qos) {
                slot.satisfied += 1;
            }
            slot.utility_sum += generated.utility;
        }
    }
    ConfigResult {
        exp,
        cfg,
        stats,
        services,
    }
}

/// Runs the full Fig. 6 reproduction over all Table III configurations and
/// writes `fig6.tsv`.
///
/// # Errors
///
/// Returns an I/O error if the report cannot be written.
pub fn run(reports: &Path, services: usize, seed: u64) -> std::io::Result<()> {
    let mut report = Report::new(
        format!("Fig. 6: generated vs predefined strategies ({services} services/config)"),
        &[
            "exp",
            "cfg",
            "sat exh",
            "sat approx",
            "sat failover",
            "sat parallel",
            "avgU exh",
            "avgU approx",
            "avgU failover",
            "avgU parallel",
            "sat ratio",
        ],
    );

    let mut ratios = Vec::new();
    for (exp, cfg, config) in table3_configurations() {
        let result = run_config(exp, cfg, &config, services, seed ^ ((cfg as u64) << 16));
        if let Some(r) = result.satisfaction_ratio() {
            ratios.push(r);
        }
        let n = result.services as f64;
        report.row([
            exp.to_string(),
            cfg.to_string(),
            result.stats[0].satisfied.to_string(),
            result.stats[1].satisfied.to_string(),
            result.stats[2].satisfied.to_string(),
            result.stats[3].satisfied.to_string(),
            fmt_f(result.stats[0].utility_sum / n, 3),
            fmt_f(result.stats[1].utility_sum / n, 3),
            fmt_f(result.stats[2].utility_sum / n, 3),
            fmt_f(result.stats[3].utility_sum / n, 3),
            result
                .satisfaction_ratio()
                .map_or_else(|| "-".to_string(), |r| fmt_f(r, 2)),
        ]);
    }
    if !ratios.is_empty() {
        let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
        report.note(format!(
            "mean satisfied-services ratio (generated / best predefined): {mean_ratio:.2}x \
             (paper reports ~2x)"
        ));
    }
    report.note("satisfaction judged on estimated QoS, as in the paper");
    report.emit(reports, "fig6")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp1_cfg1() -> RandomEnvConfig {
        RandomEnvConfig {
            microservices: 4,
            avg_cost: 60.0,
            avg_latency: 60.0,
            avg_reliability_pct: 80.0,
            delta: 50.0,
        }
    }

    #[test]
    fn generated_dominates_predefined_on_utility() {
        let result = run_config("exp1", 1, &exp1_cfg1(), 15, 1);
        let [exh, approx, failover, parallel] = result.stats;
        assert!(
            exh.utility_sum >= approx.utility_sum - 1e-9,
            "exhaustive is optimal"
        );
        assert!(exh.utility_sum > failover.utility_sum);
        assert!(exh.utility_sum > parallel.utility_sum);
    }

    #[test]
    fn generated_satisfies_at_least_as_many_services() {
        let result = run_config("exp1", 1, &exp1_cfg1(), 15, 2);
        let generated = result.stats[0].satisfied;
        let predefined = result.stats[2].satisfied.max(result.stats[3].satisfied);
        assert!(generated >= predefined);
    }

    #[test]
    fn approximation_close_to_exhaustive() {
        // Paper: "the exhaustive search and Approximation produce strategies
        // with comparable performance".
        let result = run_config("exp1", 1, &exp1_cfg1(), 20, 3);
        let exh_avg = result.stats[0].utility_sum / 20.0;
        let approx_avg = result.stats[1].utility_sum / 20.0;
        assert!(
            exh_avg - approx_avg < 0.5,
            "gap {:.3}",
            exh_avg - approx_avg
        );
    }

    #[test]
    fn run_writes_report() {
        let dir = std::env::temp_dir().join(format!("qce-fig6-{}", std::process::id()));
        run(&dir, 3, 4).unwrap();
        assert!(dir.join("fig6.tsv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
