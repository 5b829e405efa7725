//! Pareto-optimal strategy selection (paper Section IV.C).
//!
//! Among all candidate strategies `S`, a strategy is *Pareto optimal* iff no
//! other strategy improves one QoS attribute without worsening another. The
//! utility index then ranks the Pareto-optimal candidates against the QoS
//! requirements.

use crate::enumerate::StrategyIter;
use crate::error::GenerateError;
use crate::estimate::Estimator;
use crate::expr::Strategy;
use crate::generate::IdSet;
use crate::qos::{EnvQos, Qos};
use crate::utility::dominates;

/// Returns the indices of the Pareto-optimal entries of `candidates`
/// (QoS triples with cost/latency lower-is-better, reliability
/// higher-is-better), in ascending index order.
///
/// Duplicated QoS values are all kept: a strategy is only excluded when some
/// candidate is *strictly* better on at least one attribute and no worse on
/// the rest.
///
/// # Examples
///
/// ```
/// use qce_strategy::pareto::pareto_indices;
/// use qce_strategy::Qos;
///
/// let candidates = vec![
///     Qos::new(50.0, 50.0, 0.9)?,   // optimal
///     Qos::new(60.0, 50.0, 0.9)?,   // dominated by #0
///     Qos::new(40.0, 70.0, 0.9)?,   // optimal (cheaper, slower)
///     Qos::new(50.0, 50.0, 0.95)?,  // dominates #0
/// ];
/// assert_eq!(pareto_indices(&candidates), vec![2, 3]);
/// # Ok::<(), qce_strategy::QosError>(())
/// ```
#[must_use]
pub fn pareto_indices(candidates: &[Qos]) -> Vec<usize> {
    (0..candidates.len())
        .filter(|&i| {
            !candidates
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && dominates(other, &candidates[i]))
        })
        .collect()
}

/// Filters `items` down to the Pareto-optimal ones according to the QoS
/// value extracted by `qos_of`.
///
/// This is the generic companion of [`pareto_indices`] for collections that
/// pair strategies with their estimates.
///
/// # Examples
///
/// ```
/// use qce_strategy::pareto::pareto_front;
/// use qce_strategy::{Qos, Strategy};
///
/// let items = vec![
///     (Strategy::parse("a-b")?, Qos::new(90.0, 90.0, 0.84)?),
///     (Strategy::parse("a*b")?, Qos::new(150.0, 70.0, 0.84)?),
///     (Strategy::parse("b-a")?, Qos::new(160.0, 120.0, 0.84)?), // dominated
/// ];
/// let front = pareto_front(items, |(_, q)| *q);
/// assert_eq!(front.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn pareto_front<T>(items: Vec<T>, qos_of: impl Fn(&T) -> Qos) -> Vec<T> {
    let qos: Vec<Qos> = items.iter().map(&qos_of).collect();
    let keep = pareto_indices(&qos);
    let mut keep_iter = keep.into_iter().peekable();
    items
        .into_iter()
        .enumerate()
        .filter_map(|(i, item)| {
            if keep_iter.peek() == Some(&i) {
                keep_iter.next();
                Some(item)
            } else {
                None
            }
        })
        .collect()
}

/// Streams every strategy over **all** of `ids` through `estimator` and
/// returns the Pareto-optimal `(strategy, QoS)` pairs.
///
/// Built on the lazy [`StrategyIter`] enumerator, so the full `F(M)` space
/// is never materialized — only the surviving front is collected. Uses
/// [`Estimator::estimate_uncached`] to avoid flooding a memoizing
/// estimator's cache with `F(M)` one-shot entries.
///
/// # Errors
///
/// [`GenerateError::TooManyMicroservices`] past
/// [`MAX_COUNT_M`](crate::enumerate::MAX_COUNT_M) ids, or the estimator's
/// error (e.g. [`EstimateError::MissingMicroservice`](crate::EstimateError::MissingMicroservice))
/// if `env` does not cover `ids`.
///
/// # Examples
///
/// ```
/// use qce_strategy::pareto::pareto_strategies;
/// use qce_strategy::{Algorithm1, EnvQos, IdSet};
///
/// let env = EnvQos::from_triples(&[(50.0, 50.0, 0.6), (100.0, 100.0, 0.6)])?;
/// let ids = env.ids();
/// let front = pareto_strategies(&env, IdSet::new(&ids)?, &Algorithm1::new())?;
/// // F(2) = 3 candidates (a-b, b-a, a*b); none dominates all others.
/// assert!(!front.is_empty() && front.len() <= 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn pareto_strategies(
    env: &EnvQos,
    ids: IdSet<'_>,
    estimator: &dyn Estimator,
) -> Result<Vec<(Strategy, Qos)>, GenerateError> {
    let mut items = Vec::new();
    for strategy in StrategyIter::over(ids)? {
        let qos = estimator.estimate_uncached(&strategy, env)?;
        items.push((strategy, qos));
    }
    Ok(pareto_front(items, |(_, qos)| *qos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EstimateError;
    use crate::estimate::{estimate, Algorithm1};
    use crate::qos::MsId;

    fn q(c: f64, l: f64, r: f64) -> Qos {
        Qos::new(c, l, r).unwrap()
    }

    #[test]
    fn empty_input() {
        assert!(pareto_indices(&[]).is_empty());
    }

    #[test]
    fn single_candidate_is_optimal() {
        assert_eq!(pareto_indices(&[q(1.0, 1.0, 0.5)]), vec![0]);
    }

    #[test]
    fn identical_candidates_all_kept() {
        let c = vec![q(1.0, 1.0, 0.5); 3];
        assert_eq!(pareto_indices(&c), vec![0, 1, 2]);
    }

    #[test]
    fn strict_dominance_removes() {
        let c = vec![q(1.0, 1.0, 0.9), q(2.0, 2.0, 0.8)];
        assert_eq!(pareto_indices(&c), vec![0]);
    }

    #[test]
    fn incomparable_candidates_all_kept() {
        // Classic trade-off triangle: cheap/slow, costly/fast, reliable.
        let c = vec![q(10.0, 90.0, 0.8), q(90.0, 10.0, 0.8), q(50.0, 50.0, 0.99)];
        assert_eq!(pareto_indices(&c), vec![0, 1, 2]);
    }

    #[test]
    fn chain_of_dominance_keeps_only_best() {
        let c = vec![
            q(4.0, 4.0, 0.5),
            q(3.0, 3.0, 0.6),
            q(2.0, 2.0, 0.7),
            q(1.0, 1.0, 0.8),
        ];
        assert_eq!(pareto_indices(&c), vec![3]);
    }

    #[test]
    fn front_matches_brute_force_on_random_input() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let candidates: Vec<Qos> = (0..60)
            .map(|_| {
                q(
                    rng.gen_range(1.0..100.0),
                    rng.gen_range(1.0..100.0),
                    rng.gen_range(0.1..0.99),
                )
            })
            .collect();
        let fast = pareto_indices(&candidates);
        // Brute force re-check: an index is optimal iff nothing dominates it.
        for i in 0..candidates.len() {
            let dominated = candidates
                .iter()
                .enumerate()
                .any(|(j, o)| j != i && dominates(o, &candidates[i]));
            assert_eq!(fast.contains(&i), !dominated, "index {i}");
        }
    }

    #[test]
    fn pareto_front_preserves_payloads() {
        let items = vec![("worse", q(2.0, 2.0, 0.5)), ("better", q(1.0, 1.0, 0.9))];
        let front = pareto_front(items, |(_, qos)| *qos);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].0, "better");
    }

    #[test]
    fn pareto_strategies_matches_materialized_front() {
        let env =
            EnvQos::from_triples(&[(50.0, 50.0, 0.6), (100.0, 100.0, 0.6), (150.0, 150.0, 0.7)])
                .unwrap();
        let ids = env.ids();
        let ids = IdSet::new(&ids).unwrap();
        let streamed = pareto_strategies(&env, ids, &Algorithm1::new()).unwrap();

        // Reference: materialize all F(3) = 19 candidates, then filter.
        let all: Vec<(Strategy, Qos)> = StrategyIter::over(ids)
            .unwrap()
            .map(|s| {
                let qos = estimate(&s, &env).unwrap();
                (s, qos)
            })
            .collect();
        assert_eq!(all.len(), 19);
        let reference = pareto_front(all, |(_, qos)| *qos);

        assert_eq!(streamed.len(), reference.len());
        for ((s1, q1), (s2, q2)) in streamed.iter().zip(&reference) {
            assert_eq!(s1, s2);
            assert_eq!(q1, q2);
        }
        // The front is never empty and never the whole space here.
        assert!(!streamed.is_empty() && streamed.len() < 19);
    }

    #[test]
    fn pareto_strategies_reports_missing_microservice() {
        let env = EnvQos::from_triples(&[(50.0, 50.0, 0.6)]).unwrap();
        let ids = [MsId(0), MsId(7)];
        let err = pareto_strategies(&env, IdSet::new(&ids).unwrap(), &Algorithm1::new());
        assert_eq!(err, Err(EstimateError::MissingMicroservice(MsId(7)).into()));
    }
}
