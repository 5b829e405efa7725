//! Reproduction of **Fig. 5**: utility distributions of *all possible*
//! strategies under the Table III simulation configurations.
//!
//! For each configuration we draw random services (random per-microservice
//! QoS), estimate the utility of **every** strategy in `F(M)` against the
//! fixed requirements `Qc = 100`, `Ql = 100`, `Qr = 97%`, and report the
//! distribution. The paper's qualitative findings to reproduce:
//!
//! * different strategies for the *same* service differ wildly in utility;
//! * higher average QoS, larger Δ, and more microservices all shift the
//!   distribution towards higher utilities.

use std::path::Path;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_sim::table3_configurations;
use qce_strategy::enumerate::StrategyIter;
use qce_strategy::estimate::estimate;
use qce_strategy::{IdSet, Requirements, UtilityIndex};

use crate::report::{fmt_f, Report};

/// The fixed QoS requirements of all simulation experiments (Section V.A).
///
/// # Panics
///
/// Never panics: the constants are in domain.
#[must_use]
pub fn sim_requirements() -> Requirements {
    Requirements::new(100.0, 100.0, 0.97).expect("constants in domain")
}

/// Utility histogram over `(service, strategy)` pairs for one
/// configuration.
#[derive(Debug, Clone)]
pub struct UtilityDistribution {
    /// Sorted utilities of every strategy of every sampled service.
    pub utilities: Vec<f64>,
}

impl UtilityDistribution {
    /// The `q`-quantile (0 ≤ q ≤ 1) of the distribution.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.utilities.is_empty());
        let idx = ((self.utilities.len() - 1) as f64 * q).round() as usize;
        self.utilities[idx]
    }

    /// Mean utility.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.utilities.iter().sum::<f64>() / self.utilities.len() as f64
    }

    /// Fraction of `(service, strategy)` pairs with utility above `level`.
    #[must_use]
    pub(crate) fn fraction_above(&self, level: f64) -> f64 {
        let above = self.utilities.iter().filter(|&&u| u > level).count();
        above as f64 / self.utilities.len() as f64
    }
}

/// Computes the Fig. 5 distribution for one configuration: `services`
/// random environments, all strategies each.
#[must_use]
pub fn distribution(
    config: &qce_sim::RandomEnvConfig,
    services: usize,
    seed: u64,
) -> UtilityDistribution {
    let requirements = sim_requirements();
    let utility = UtilityIndex::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut utilities = Vec::new();
    for _ in 0..services {
        let env = config.generate(&mut rng).mean_qos_table();
        let ids = env.ids();
        let space = IdSet::new(&ids).and_then(StrategyIter::over);
        for s in space.expect("Table III environments have 2 to 6 microservices") {
            let qos = estimate(&s, &env).expect("environment covers ids");
            utilities.push(utility.utility(&qos, &requirements));
        }
    }
    utilities.sort_by(|a, b| a.partial_cmp(b).expect("utilities are finite"));
    UtilityDistribution { utilities }
}

/// Runs the Fig. 5 reproduction (`services` random services per Table III
/// configuration) and writes `fig5_summary.tsv` and `fig5_hist.tsv`.
///
/// # Errors
///
/// Returns an I/O error if a report cannot be written.
pub fn run(reports: &Path, services: usize, seed: u64) -> std::io::Result<()> {
    let mut summary = Report::new(
        format!(
            "Fig. 5: utility of ALL strategies ({services} services/config, Qc=100 Ql=100 Qr=97%)"
        ),
        &[
            "exp",
            "cfg",
            "M",
            "avg c,l,r",
            "delta",
            "mean U",
            "p10",
            "p50",
            "p90",
            "max",
            "frac U>0",
        ],
    );
    let mut hist = Report::new(
        "Fig. 5 histogram data (fraction of strategies per utility bin)",
        &["exp", "cfg", "bin_low", "bin_high", "fraction"],
    );

    for (exp, cfg_index, config) in table3_configurations() {
        let dist = distribution(&config, services, seed ^ (cfg_index as u64) << 8);
        summary.row([
            exp.to_string(),
            cfg_index.to_string(),
            config.microservices.to_string(),
            format!(
                "{:.0},{:.0},{:.0}",
                config.avg_cost, config.avg_latency, config.avg_reliability_pct
            ),
            fmt_f(config.delta, 0),
            fmt_f(dist.mean(), 3),
            fmt_f(dist.quantile(0.10), 3),
            fmt_f(dist.quantile(0.50), 3),
            fmt_f(dist.quantile(0.90), 3),
            fmt_f(dist.quantile(1.0), 3),
            fmt_f(dist.fraction_above(0.0), 4),
        ]);

        // Histogram: utility bins of width 0.5 across the observed range.
        let lo = dist.quantile(0.0).floor();
        let hi = dist.quantile(1.0).ceil();
        let mut bin_lo = lo;
        while bin_lo < hi {
            let bin_hi = bin_lo + 0.5;
            let frac = dist.fraction_above(bin_lo) - dist.fraction_above(bin_hi);
            if frac > 0.0005 {
                hist.row([
                    exp.to_string(),
                    cfg_index.to_string(),
                    fmt_f(bin_lo, 1),
                    fmt_f(bin_hi, 1),
                    fmt_f(frac, 4),
                ]);
            }
            bin_lo = bin_hi;
        }
    }

    summary.note("paper finding 1: strategies for the same service span a wide utility range");
    summary.note("paper finding 2: higher avg QoS / larger delta / more ms => higher utilities");
    summary.emit(reports, "fig5_summary")?;
    hist.emit(reports, "fig5_hist")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qce_sim::RandomEnvConfig;

    fn config(m: usize, avg: f64, delta: f64) -> RandomEnvConfig {
        RandomEnvConfig {
            microservices: m,
            avg_cost: avg,
            avg_latency: avg,
            avg_reliability_pct: 140.0 - avg, // better cost ⇒ better reliability
            delta,
        }
    }

    #[test]
    fn distribution_has_expected_size() {
        let dist = distribution(&config(3, 70.0, 40.0), 5, 1);
        // 19 strategies × 5 services.
        assert_eq!(dist.utilities.len(), 95);
        assert!(dist.quantile(0.0) <= dist.quantile(1.0));
    }

    #[test]
    fn utilities_vary_widely_within_a_service() {
        // Paper finding: different strategies lead to vastly dissimilar
        // utilities.
        let dist = distribution(&config(4, 70.0, 50.0), 10, 2);
        assert!(dist.quantile(1.0) - dist.quantile(0.0) > 1.0);
    }

    #[test]
    fn better_average_qos_shifts_distribution_up() {
        // exp1's qualitative trend: avg [60,60,80] beats [90,90,50].
        let good = distribution(&config(4, 60.0, 50.0), 10, 3);
        let bad = distribution(&config(4, 90.0, 50.0), 10, 3);
        assert!(good.mean() > bad.mean());
    }

    #[test]
    fn more_microservices_raise_the_top_of_the_distribution() {
        let small = distribution(&config(3, 90.0, 100.0), 10, 4);
        let large = distribution(&config(5, 90.0, 100.0), 10, 4);
        assert!(large.quantile(1.0) >= small.quantile(1.0));
    }

    #[test]
    fn fraction_above_is_monotone() {
        let dist = distribution(&config(3, 70.0, 40.0), 5, 5);
        assert!(dist.fraction_above(-10.0) >= dist.fraction_above(0.0));
        assert!(dist.fraction_above(0.0) >= dist.fraction_above(10.0));
    }

    #[test]
    fn run_writes_reports() {
        let dir = std::env::temp_dir().join(format!("qce-fig5-{}", std::process::id()));
        run(&dir, 3, 7).unwrap();
        assert!(dir.join("fig5_summary.tsv").exists());
        assert!(dir.join("fig5_hist.tsv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
