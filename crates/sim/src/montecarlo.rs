//! Monte-Carlo measurement of strategy QoS, used to validate the analytic
//! estimator (paper Section V.A.2: 100 random strategies × 300 executions,
//! estimation error below 1%).

use std::num::NonZeroU32;

use rand::Rng;
use serde::{Deserialize, Serialize};

use qce_strategy::{EstimateError, Qos, QosError, Strategy};

use crate::environment::Environment;
use crate::exec::VirtualExecutor;

/// Aggregate statistics over repeated simulated executions of one strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McStats {
    /// Number of executions.
    pub runs: u32,
    /// Fraction of executions that succeeded (measured reliability).
    pub success_rate: f64,
    /// Mean completion time across all executions.
    pub mean_latency: f64,
    /// Mean charged cost across all executions.
    pub mean_cost: f64,
    /// Sample standard deviation of the completion time.
    pub std_latency: f64,
    /// Sample standard deviation of the charged cost.
    pub std_cost: f64,
}

impl McStats {
    /// The measured QoS triple (means), comparable to an Algorithm 1
    /// estimate.
    ///
    /// # Errors
    ///
    /// The [`QosError`] of [`Qos::new`] when a field is outside its domain
    /// — never for stats produced by [`simulate`], but the fields are
    /// public.
    pub fn as_qos(&self) -> Result<Qos, QosError> {
        Qos::new(self.mean_cost, self.mean_latency, self.success_rate)
    }
}

/// Runs `strategy` `runs` times against `env` in virtual time and
/// aggregates the outcomes.
///
/// # Errors
///
/// Returns [`EstimateError::MissingMicroservice`] if the strategy
/// references a microservice absent from `env`.
///
/// # Examples
///
/// The paper's Section III.C.3 example: `a*b*c` with latencies
/// `(10, 90, 70)` and reliabilities `(10%, 90%, 70%)` measures ≈ 69.4 —
/// matching Algorithm 1 and refuting the folding estimate of 73.6:
///
/// ```
/// use std::num::NonZeroU32;
/// use qce_sim::{simulate, Environment};
/// use qce_strategy::Strategy;
/// use rand::SeedableRng;
///
/// let env = Environment::from_triples(&[
///     (1.0, 10.0, 0.1),
///     (1.0, 90.0, 0.9),
///     (1.0, 70.0, 0.7),
/// ])?;
/// let s = Strategy::parse("a*b*c")?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let runs = NonZeroU32::new(30_000).unwrap();
/// let stats = simulate(&s, &env, runs, &mut rng)?;
/// assert!((stats.mean_latency - 69.4).abs() < 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate<R: Rng + ?Sized>(
    strategy: &Strategy,
    env: &Environment,
    runs: NonZeroU32,
    rng: &mut R,
) -> Result<McStats, EstimateError> {
    simulate_with(&VirtualExecutor::new(), strategy, env, runs, rng)
}

/// Like [`simulate`] but with a caller-provided executor (e.g. the
/// no-cancellation-charge ablation).
///
/// # Errors
///
/// Returns [`EstimateError::MissingMicroservice`] if the strategy
/// references a microservice absent from `env`.
pub fn simulate_with<R: Rng + ?Sized>(
    executor: &VirtualExecutor,
    strategy: &Strategy,
    env: &Environment,
    runs: NonZeroU32,
    rng: &mut R,
) -> Result<McStats, EstimateError> {
    let runs = runs.get();
    let mut latencies = Vec::with_capacity(runs as usize);
    let mut costs = Vec::with_capacity(runs as usize);
    let mut successes = 0u32;
    for _ in 0..runs {
        let trace = executor.execute(strategy, env, rng)?;
        if trace.success {
            successes += 1;
        }
        latencies.push(trace.latency);
        costs.push(trace.cost);
    }
    let (mean_latency, std_latency) = mean_std(&latencies);
    let (mean_cost, std_cost) = mean_std(&costs);
    Ok(McStats {
        runs,
        success_rate: f64::from(successes) / f64::from(runs),
        mean_latency,
        mean_cost,
        std_latency,
        std_cost,
    })
}

/// Relative error (in percent) between a measured mean and an estimate,
/// `|measured − estimated| / estimated × 100`.
///
/// The paper reports this below 1% for all validated strategies.
#[must_use]
pub fn relative_error_pct(measured: f64, estimated: f64) -> f64 {
    if estimated == 0.0 {
        if measured == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((measured - estimated) / estimated).abs() * 100.0
    }
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qce_strategy::estimate::estimate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn env_3c3() -> Environment {
        Environment::from_triples(&[(1.0, 10.0, 0.1), (1.0, 90.0, 0.9), (1.0, 70.0, 0.7)]).unwrap()
    }

    #[test]
    fn paper_worked_example_measures_to_estimate() {
        let env = env_3c3();
        let s = Strategy::parse("a*b*c").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let stats = simulate(&s, &env, NonZeroU32::new(50_000).unwrap(), &mut rng).unwrap();
        let est = estimate(&s, &env.mean_qos_table()).unwrap();
        assert!(
            relative_error_pct(stats.mean_latency, est.latency) < 1.0,
            "measured {} vs estimated {}",
            stats.mean_latency,
            est.latency
        );
        assert!(relative_error_pct(stats.mean_cost, est.cost) < 1.0);
        assert!((stats.success_rate - est.reliability.value()).abs() < 0.01);
    }

    #[test]
    fn failover_measures_to_estimate() {
        let env = Environment::from_triples(&[
            (50.0, 50.0, 0.6),
            (100.0, 100.0, 0.6),
            (150.0, 150.0, 0.7),
            (200.0, 200.0, 0.7),
            (250.0, 250.0, 0.8),
        ])
        .unwrap();
        let s = Strategy::parse("a-b-c-d-e").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let stats = simulate(&s, &env, NonZeroU32::new(50_000).unwrap(), &mut rng).unwrap();
        let est = estimate(&s, &env.mean_qos_table()).unwrap();
        assert!(relative_error_pct(stats.mean_latency, est.latency) < 1.5);
        assert!(relative_error_pct(stats.mean_cost, est.cost) < 1.5);
    }

    #[test]
    fn table2_strategy4_measures_to_estimate() {
        let env = Environment::from_triples(&[
            (50.0, 50.0, 0.6),
            (100.0, 100.0, 0.6),
            (150.0, 150.0, 0.7),
            (200.0, 200.0, 0.7),
            (250.0, 250.0, 0.8),
        ])
        .unwrap();
        let s = Strategy::parse("c*(a*b-d*e)").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let stats = simulate(&s, &env, NonZeroU32::new(50_000).unwrap(), &mut rng).unwrap();
        let est = estimate(&s, &env.mean_qos_table()).unwrap();
        assert!(relative_error_pct(stats.mean_latency, est.latency) < 1.5);
        assert!(relative_error_pct(stats.mean_cost, est.cost) < 1.5);
        assert!((stats.success_rate - 0.99712).abs() < 0.005);
    }

    #[test]
    fn deterministic_strategy_has_zero_variance() {
        let env = Environment::from_triples(&[(5.0, 10.0, 1.0)]).unwrap();
        let s = Strategy::parse("a").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let stats = simulate(&s, &env, NonZeroU32::new(100).unwrap(), &mut rng).unwrap();
        assert_eq!(stats.mean_latency, 10.0);
        assert_eq!(stats.std_latency, 0.0);
        assert_eq!(stats.success_rate, 1.0);
        assert_eq!(stats.as_qos().unwrap().cost, 5.0);
    }

    #[test]
    fn relative_error_edge_cases() {
        assert_eq!(relative_error_pct(0.0, 0.0), 0.0);
        assert!(relative_error_pct(1.0, 0.0).is_infinite());
        assert!((relative_error_pct(101.0, 100.0) - 1.0).abs() < 1e-12);
        assert!((relative_error_pct(99.0, 100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_ms_propagates() {
        let env = Environment::from_triples(&[(1.0, 1.0, 0.5)]).unwrap();
        let s = Strategy::parse("a-b").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(simulate(&s, &env, NonZeroU32::new(10).unwrap(), &mut rng).is_err());
    }

    #[test]
    fn simulate_with_ablation_executor_costs_less() {
        let env = Environment::from_triples(&[(50.0, 100.0, 0.9), (50.0, 5.0, 0.9)]).unwrap();
        let s = Strategy::parse("a*b").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let charged = simulate(&s, &env, NonZeroU32::new(5_000).unwrap(), &mut rng).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let free = simulate_with(
            &VirtualExecutor::without_cancellation_charges(),
            &s,
            &env,
            NonZeroU32::new(5_000).unwrap(),
            &mut rng,
        )
        .unwrap();
        assert!(free.mean_cost < charged.mean_cost);
    }
}
