//! Exact latency *distribution* of a strategy — a strict generalization of
//! Algorithm 1's average.
//!
//! Under the model of Section III.C (fixed per-microservice latencies,
//! independent Bernoulli successes), a strategy's completion time is a
//! discrete random variable: it equals `φ(i).end` when every microservice
//! finishing earlier failed and `φ(i)` succeeded, and the last end time
//! when everything failed. Algorithm 1 reports only the mean of this
//! mixture; this module exposes the full mixture, from which tail
//! percentiles — the latency metric real SLAs are written against — follow
//! directly.

use serde::{Deserialize, Serialize};

use crate::error::EstimateError;
use crate::estimate::timeline::timelines;
use crate::expr::Strategy;
use crate::qos::EnvQos;

/// A discrete completion-time distribution.
///
/// # Examples
///
/// ```
/// use qce_strategy::estimate::latency_mixture;
/// use qce_strategy::{EnvQos, Strategy};
///
/// let env = EnvQos::from_triples(&[
///     (1.0, 10.0, 0.1),
///     (1.0, 90.0, 0.9),
///     (1.0, 70.0, 0.7),
/// ])?;
/// let mix = latency_mixture(&Strategy::parse("a*b*c")?, &env)?;
/// assert!((mix.mean() - 69.4).abs() < 1e-9);   // Algorithm 1's average
/// assert_eq!(mix.quantile(0.99), Some(90.0)); // but p99 is 90 ms
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyMixture {
    /// `(completion time, probability)` pairs, sorted by time, probabilities
    /// summing to 1.
    points: Vec<(f64, f64)>,
}

impl LatencyMixture {
    /// The support points and their probabilities, sorted by time.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Mean completion time — identical to Algorithm 1's latency.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.points.iter().map(|(t, p)| t * p).sum()
    }

    /// Variance of the completion time.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        self.points
            .iter()
            .map(|(t, p)| p * (t - mean).powi(2))
            .sum()
    }

    /// Standard deviation of the completion time.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The smallest completion time `t` with `P(X ≤ t) ≥ q`, or `None`
    /// unless `0 < q ≤ 1` (NaN included).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(q > 0.0 && q <= 1.0) {
            return None;
        }
        let mut acc = 0.0;
        for (t, p) in &self.points {
            acc += p;
            if acc >= q - 1e-12 {
                return Some(*t);
            }
        }
        self.points.last().map(|(t, _)| *t)
    }

    /// `P(X ≤ t)`.
    #[must_use]
    pub fn cdf(&self, t: f64) -> f64 {
        self.points
            .iter()
            .take_while(|(time, _)| *time <= t)
            .map(|(_, p)| p)
            .sum()
    }
}

/// Computes the exact completion-time mixture of `strategy` under `env`
/// (fixed latencies, independent Bernoulli successes — the Section III.C
/// model).
///
/// # Errors
///
/// Returns [`EstimateError::MissingMicroservice`] if `env` lacks an entry
/// for any microservice of the strategy.
pub fn latency_mixture(strategy: &Strategy, env: &EnvQos) -> Result<LatencyMixture, EstimateError> {
    let mut tl = timelines(strategy, env)?;
    tl.sort_by(|a, b| a.end.partial_cmp(&b.end).expect("latency is not NaN"));

    let mut points: Vec<(f64, f64)> = Vec::with_capacity(tl.len() + 1);
    let mut prefix_fail = 1.0;
    for (i, t) in tl.iter().enumerate() {
        let r = env
            .get(t.ms)
            .expect("validated by timelines")
            .reliability
            .value();
        if i + 1 == tl.len() {
            // Last to finish: completion happens here regardless of outcome.
            points.push((t.end, prefix_fail));
        } else {
            let p = prefix_fail * r;
            if p > 0.0 {
                points.push((t.end, p));
            }
            prefix_fail *= 1.0 - r;
        }
    }
    // Merge duplicate support points (equal end times).
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(points.len());
    for (t, p) in points {
        match merged.last_mut() {
            Some((last_t, last_p)) if (*last_t - t).abs() < 1e-12 => *last_p += p,
            _ => merged.push((t, p)),
        }
    }
    Ok(LatencyMixture { points: merged })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate;

    fn env() -> EnvQos {
        EnvQos::from_triples(&[(1.0, 10.0, 0.1), (1.0, 90.0, 0.9), (1.0, 70.0, 0.7)]).unwrap()
    }

    #[test]
    fn probabilities_sum_to_one() {
        for text in ["a", "a-b", "a*b*c", "a-b*c", "(a-b)*c"] {
            let mix = latency_mixture(&Strategy::parse(text).unwrap(), &env()).unwrap();
            let total: f64 = mix.points().iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-12, "{text}: {total}");
        }
    }

    #[test]
    fn mean_matches_algorithm1_exactly() {
        for text in ["a", "a-b", "a*b*c", "a-b*c", "(a-b)*c", "b*(a-c)"] {
            let s = Strategy::parse(text).unwrap();
            let mix = latency_mixture(&s, &env()).unwrap();
            let alg1 = estimate(&s, &env()).unwrap();
            assert!(
                (mix.mean() - alg1.latency).abs() < 1e-9,
                "{text}: {} vs {}",
                mix.mean(),
                alg1.latency
            );
        }
    }

    #[test]
    fn worked_example_mixture() {
        // a*b*c: finish at 10 w.p. 0.1; at 70 w.p. 0.9·0.7; at 90 otherwise.
        let mix = latency_mixture(&Strategy::parse("a*b*c").unwrap(), &env()).unwrap();
        assert_eq!(mix.points().len(), 3);
        let pts = mix.points();
        assert!((pts[0].0 - 10.0).abs() < 1e-12 && (pts[0].1 - 0.1).abs() < 1e-12);
        assert!((pts[1].0 - 70.0).abs() < 1e-12 && (pts[1].1 - 0.63).abs() < 1e-12);
        assert!((pts[2].0 - 90.0).abs() < 1e-12 && (pts[2].1 - 0.27).abs() < 1e-12);
        assert!((mix.mean() - 69.4).abs() < 1e-9);
        assert!(
            (mix.variance()
                - (0.1 * 10.0f64.powi(2) + 0.63 * 70.0f64.powi(2) + 0.27 * 90.0f64.powi(2)
                    - 69.4f64.powi(2)))
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn quantiles_walk_the_support() {
        let mix = latency_mixture(&Strategy::parse("a*b*c").unwrap(), &env()).unwrap();
        assert_eq!(mix.quantile(0.05), Some(10.0));
        assert_eq!(mix.quantile(0.5), Some(70.0));
        assert_eq!(mix.quantile(0.73), Some(70.0));
        assert_eq!(mix.quantile(0.74), Some(90.0));
        assert_eq!(mix.quantile(1.0), Some(90.0));
    }

    #[test]
    fn zero_quantile_rejected() {
        let mix = latency_mixture(&Strategy::parse("a").unwrap(), &env()).unwrap();
        for q in [0.0, -1.0, f64::NAN, 1.5] {
            assert_eq!(mix.quantile(q), None, "q = {q}");
        }
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let mix = latency_mixture(&Strategy::parse("a-b*c").unwrap(), &env()).unwrap();
        assert_eq!(mix.cdf(-1.0), 0.0);
        let mut prev = 0.0;
        for t in [0.0, 50.0, 100.0, 200.0, 1000.0] {
            let c = mix.cdf(t);
            assert!(c >= prev);
            prev = c;
        }
        assert!((mix.cdf(f64::MAX) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_leaf_is_a_point_mass() {
        let env = EnvQos::from_triples(&[(1.0, 42.0, 1.0)]).unwrap();
        let mix = latency_mixture(&Strategy::parse("a").unwrap(), &env).unwrap();
        assert_eq!(mix.points(), &[(42.0, 1.0)]);
        assert_eq!(mix.variance(), 0.0);
        assert_eq!(mix.std_dev(), 0.0);
    }

    #[test]
    fn equal_end_times_are_merged() {
        let env = EnvQos::from_triples(&[(1.0, 50.0, 0.5), (1.0, 50.0, 0.5)]).unwrap();
        let mix = latency_mixture(&Strategy::parse("a*b").unwrap(), &env).unwrap();
        assert_eq!(mix.points().len(), 1);
        assert_eq!(mix.points()[0], (50.0, 1.0));
    }

    #[test]
    fn zero_reliability_head_contributes_no_mass() {
        let env = EnvQos::from_triples(&[(1.0, 10.0, 0.0), (1.0, 30.0, 0.8)]).unwrap();
        let mix = latency_mixture(&Strategy::parse("a-b").unwrap(), &env).unwrap();
        // a always fails, so completion only ever happens at 40 (= 10 + 30).
        assert_eq!(mix.points(), &[(40.0, 1.0)]);
    }

    #[test]
    fn mixture_matches_monte_carlo_quantiles() {
        // Cross-check the p90 against an empirical distribution.
        use rand::Rng;
        use rand::SeedableRng;
        let env = env();
        let s = Strategy::parse("a-b*c").unwrap();
        let mix = latency_mixture(&s, &env).unwrap();
        // Manual virtual-time sampling with constant latencies.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut samples: Vec<f64> = Vec::new();
        for _ in 0..20_000 {
            // a runs [0,10); b [10,100); c [10,80).
            let a_ok = rng.gen_bool(0.1);
            if a_ok {
                samples.push(10.0);
                continue;
            }
            // b's outcome doesn't change the completion time once a failed:
            // success at 100 or total failure at 100 look the same.
            let _b = rng.gen_bool(0.9);
            let c_ok = rng.gen_bool(0.7);
            samples.push(if c_ok { 80.0 } else { 100.0 });
        }
        samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let p90_mc = samples[(samples.len() as f64 * 0.9) as usize];
        assert_eq!(mix.quantile(0.9), Some(p90_mc));
    }
}
