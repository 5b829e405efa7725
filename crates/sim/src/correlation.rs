//! Correlated failures: microservices that share a physical host share its
//! fate.
//!
//! Algorithm 1 (and the collector feeding it) treats microservice failures
//! as independent — reliability of a strategy is `1 − Π(1 − r_m)`. That is
//! exactly right when every equivalent microservice lives on its own
//! device, but edge deployments sometimes co-locate several equivalents on
//! one host (one Raspberry Pi running both the smoke-sensor reader and the
//! camera analyzer). When the *host* browns out, both fail together, and
//! the independence-based estimate overstates the strategy's reliability.
//!
//! This module simulates such shared-fate groups so the gap can be
//! measured (see the correlation ablation in `qce-bench`), quantifying how
//! much redundancy is really bought by equivalents that aren't
//! failure-isolated.

use std::num::NonZeroU32;

use rand::Rng;
use serde::{Deserialize, Serialize};

use qce_strategy::{EstimateError, MsId, QosError, Reliability, Strategy};

use crate::environment::Environment;
use crate::exec::VirtualExecutor;
use crate::trace::ExecutionTrace;

/// A group of microservices sharing one physical host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedHost {
    /// Microservices hosted on this device.
    pub members: Vec<MsId>,
    /// Probability that the host is up for a given execution. When the
    /// host is down, every member fails regardless of its own reliability.
    pub availability: f64,
}

impl SharedHost {
    /// Creates a shared host.
    ///
    /// # Errors
    ///
    /// Returns [`QosError::ReliabilityOutOfRange`] if `availability` is not
    /// a probability: outside `[0, 1]`, or NaN.
    pub fn new(members: Vec<MsId>, availability: f64) -> Result<Self, QosError> {
        Reliability::new(availability)?;
        Ok(SharedHost {
            members,
            availability,
        })
    }
}

/// Adjusts `env` so that each microservice's *marginal* reliability equals
/// the original value even under the host-availability factor: members of a
/// group with availability `h` get conditional reliability `r / h`.
///
/// This is the fair comparison setup: the collector (which observes
/// marginals) reports the same per-microservice reliabilities with or
/// without correlation, so any gap in *strategy* reliability is purely a
/// joint-distribution effect.
///
/// Returns `None` if some member's `r > h` (the marginal cannot be
/// preserved) or a member id is missing from the environment.
#[must_use]
pub fn preserve_marginals(env: &Environment, hosts: &[SharedHost]) -> Option<Environment> {
    let mut adjusted = env.clone();
    for host in hosts {
        for &id in &host.members {
            let model = adjusted.get_mut(id)?;
            let marginal = model.reliability.value();
            if host.availability == 0.0 {
                if marginal > 0.0 {
                    return None;
                }
                continue;
            }
            let conditional = marginal / host.availability;
            if conditional > 1.0 + 1e-12 {
                return None;
            }
            model.reliability = qce_strategy::Reliability::clamped(conditional);
        }
    }
    Some(adjusted)
}

/// Executes `strategy` once with shared-fate failures: host up/down states
/// are sampled first, then members of down hosts fail unconditionally
/// (their latency still elapses — the caller times out on an unreachable
/// device).
///
/// `env` must hold the *conditional* reliabilities (see
/// [`preserve_marginals`]).
///
/// # Errors
///
/// Returns [`EstimateError::MissingMicroservice`] if the strategy
/// references a microservice absent from `env`.
pub fn execute_with_shared_fate<R: Rng + ?Sized>(
    executor: &VirtualExecutor,
    strategy: &Strategy,
    env: &Environment,
    hosts: &[SharedHost],
    rng: &mut R,
) -> Result<ExecutionTrace, EstimateError> {
    // Sample host states, then materialize an environment view where down
    // hosts' members have zero reliability for this one execution.
    let mut effective = env.clone();
    for host in hosts {
        if !rng.gen_bool(host.availability) {
            for &id in &host.members {
                if let Some(model) = effective.get_mut(id) {
                    model.reliability = qce_strategy::Reliability::NEVER;
                }
            }
        }
    }
    executor.execute(strategy, &effective, rng)
}

/// Measured reliability of `strategy` over `runs` shared-fate executions.
///
/// # Errors
///
/// Returns [`EstimateError::MissingMicroservice`] if the strategy
/// references a microservice absent from `env`.
pub fn measure_reliability<R: Rng + ?Sized>(
    strategy: &Strategy,
    env: &Environment,
    hosts: &[SharedHost],
    runs: NonZeroU32,
    rng: &mut R,
) -> Result<f64, EstimateError> {
    let runs = runs.get();
    let executor = VirtualExecutor::new();
    let mut successes = 0u32;
    for _ in 0..runs {
        if execute_with_shared_fate(&executor, strategy, env, hosts, rng)?.success {
            successes += 1;
        }
    }
    Ok(f64::from(successes) / f64::from(runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qce_strategy::estimate::estimate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn env() -> Environment {
        // Two equivalents with marginal reliability 0.6 each.
        Environment::from_triples(&[(10.0, 5.0, 0.6), (10.0, 8.0, 0.6)]).unwrap()
    }

    /// One host over `members`, at an availability that is a probability.
    fn host(members: &[usize], availability: f64) -> SharedHost {
        SharedHost::new(members.iter().copied().map(MsId).collect(), availability).unwrap()
    }

    #[test]
    fn bad_availability_rejected() {
        for bad in [1.5, -0.25, f64::NAN, f64::INFINITY] {
            let host = SharedHost::new(vec![MsId(0)], bad);
            assert!(
                matches!(host, Err(QosError::ReliabilityOutOfRange(v)) if v.to_bits() == bad.to_bits()),
                "{bad}: {host:?}"
            );
        }
        for edge in [0.0, 1.0] {
            assert_eq!(
                SharedHost::new(vec![MsId(0)], edge).unwrap().availability,
                edge
            );
        }
    }

    #[test]
    fn preserve_marginals_divides_by_availability() {
        let hosts = [host(&[0, 1], 0.75)];
        let adjusted = preserve_marginals(&env(), &hosts).unwrap();
        assert!((adjusted.get(MsId(0)).unwrap().reliability.value() - 0.8).abs() < 1e-12);
        assert!((adjusted.get(MsId(1)).unwrap().reliability.value() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn preserve_marginals_rejects_impossible() {
        // Marginal 0.6 cannot come from a host that is up half the time.
        let hosts = [host(&[0], 0.5)];
        assert!(preserve_marginals(&env(), &hosts).is_none());
        let hosts = [host(&[9], 0.9)];
        assert!(preserve_marginals(&env(), &hosts).is_none(), "unknown id");
    }

    #[test]
    fn marginal_reliability_is_preserved_empirically() {
        let hosts = [host(&[0, 1], 0.75)];
        let adjusted = preserve_marginals(&env(), &hosts).unwrap();
        let s = qce_strategy::Strategy::parse("a").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let measured = measure_reliability(
            &s,
            &adjusted,
            &hosts,
            NonZeroU32::new(40_000).unwrap(),
            &mut rng,
        )
        .unwrap();
        assert!(
            (measured - 0.6).abs() < 0.01,
            "marginal drifted: {measured}"
        );
    }

    #[test]
    fn correlation_erodes_strategy_reliability() {
        // Independent estimate: 1 - 0.4² = 0.84. Shared fate at h = 0.75:
        // true reliability = h·(1-(1-0.8)²) = 0.75·0.96 = 0.72.
        let hosts = [host(&[0, 1], 0.75)];
        let adjusted = preserve_marginals(&env(), &hosts).unwrap();
        let s = qce_strategy::Strategy::parse("a-b").unwrap();
        let independent = estimate(&s, &env().mean_qos_table()).unwrap();
        assert!((independent.reliability.value() - 0.84).abs() < 1e-12);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let measured = measure_reliability(
            &s,
            &adjusted,
            &hosts,
            NonZeroU32::new(40_000).unwrap(),
            &mut rng,
        )
        .unwrap();
        assert!(
            (measured - 0.72).abs() < 0.01,
            "shared-fate reliability should be ~0.72, got {measured}"
        );
        assert!(measured < independent.reliability.value() - 0.08);
    }

    #[test]
    fn isolated_hosts_match_the_independent_estimate() {
        // One host per microservice: correlation disappears.
        let hosts = [host(&[0], 0.75), host(&[1], 0.75)];
        let adjusted = preserve_marginals(&env(), &hosts).unwrap();
        let s = qce_strategy::Strategy::parse("a-b").unwrap();
        let independent = estimate(&s, &env().mean_qos_table()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let measured = measure_reliability(
            &s,
            &adjusted,
            &hosts,
            NonZeroU32::new(40_000).unwrap(),
            &mut rng,
        )
        .unwrap();
        assert!(
            (measured - independent.reliability.value()).abs() < 0.01,
            "isolated hosts: {measured} vs {}",
            independent.reliability
        );
    }

    #[test]
    fn always_up_host_changes_nothing() {
        let hosts = [host(&[0, 1], 1.0)];
        let adjusted = preserve_marginals(&env(), &hosts).unwrap();
        assert_eq!(adjusted, env());
    }
}
