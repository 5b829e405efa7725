//! QoS composition for multi-stage services.
//!
//! A service script "describes the dataflow of constituent microservices"
//! (paper Section IV.A): a service can be a *pipeline* of stages, each
//! stage being its own set of equivalent microservices with its own
//! execution strategy. This module composes per-stage QoS into end-to-end
//! pipeline QoS, so requirements can be checked across the whole dataflow.
//!
//! A pipeline aborts at the first stage whose strategy fails entirely, so
//! for stages with QoS `(c_i, l_i, r_i)`:
//!
//! * reliability: `Π r_i` — every stage must succeed;
//! * expected cost per attempt: `Σ c_i · Π_{j<i} r_j` — stage `i` only
//!   runs if all earlier stages succeeded;
//! * expected latency per attempt: `Σ l_i · Π_{j<i} r_j`.

use crate::qos::{Qos, Reliability};

/// Composes the end-to-end QoS of a sequential pipeline of stages.
///
/// Returns `None` for an empty stage list.
///
/// # Examples
///
/// ```
/// use qce_strategy::compose::pipeline_qos;
/// use qce_strategy::Qos;
///
/// let stages = [
///     Qos::new(10.0, 20.0, 0.9)?, // sense
///     Qos::new(30.0, 50.0, 0.8)?, // analyze
/// ];
/// let total = pipeline_qos(&stages).unwrap();
/// assert!((total.reliability.value() - 0.72).abs() < 1e-12);
/// assert!((total.cost - (10.0 + 0.9 * 30.0)).abs() < 1e-12);
/// assert!((total.latency - (20.0 + 0.9 * 50.0)).abs() < 1e-12);
/// # Ok::<(), qce_strategy::QosError>(())
/// ```
#[must_use]
pub fn pipeline_qos(stages: &[Qos]) -> Option<Qos> {
    if stages.is_empty() {
        return None;
    }
    let mut reach = 1.0; // probability the stage is reached
    let mut cost = 0.0;
    let mut latency = 0.0;
    let mut reliability = 1.0;
    for stage in stages {
        cost += reach * stage.cost;
        latency += reach * stage.latency;
        reliability *= stage.reliability.value();
        reach *= stage.reliability.value();
    }
    Some(Qos {
        cost,
        latency,
        reliability: Reliability::clamped(reliability),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(c: f64, l: f64, r: f64) -> Qos {
        Qos::new(c, l, r).unwrap()
    }

    #[test]
    fn empty_pipeline_is_none() {
        assert!(pipeline_qos(&[]).is_none());
    }

    #[test]
    fn single_stage_is_identity() {
        let stage = q(10.0, 20.0, 0.8);
        assert_eq!(pipeline_qos(&[stage]).unwrap(), stage);
    }

    #[test]
    fn three_stage_expected_values() {
        let stages = [q(10.0, 10.0, 0.5), q(20.0, 20.0, 0.5), q(40.0, 40.0, 0.5)];
        let total = pipeline_qos(&stages).unwrap();
        // cost = 10 + 0.5·20 + 0.25·40 = 30; same for latency.
        assert!((total.cost - 30.0).abs() < 1e-12);
        assert!((total.latency - 30.0).abs() < 1e-12);
        assert!((total.reliability.value() - 0.125).abs() < 1e-12);
    }

    /// A run that succeeds end to end pays every stage: cost 35 and
    /// latency 45 here. The expectation never exceeds that.
    #[test]
    fn expected_cost_never_exceeds_success_cost() {
        let stages = [q(10.0, 15.0, 0.9), q(20.0, 25.0, 0.7), q(5.0, 5.0, 0.95)];
        let expected = pipeline_qos(&stages).unwrap();
        assert!(expected.cost <= 35.0);
        assert!(expected.latency <= 45.0);
        assert_eq!(expected.reliability.value(), 0.9 * 0.7 * 0.95);
    }

    /// With stages that never fail, every stage runs: the expected cost and
    /// latency are the sums, as on a successful run.
    #[test]
    fn perfect_stages_make_both_views_agree() {
        let stages = [q(10.0, 15.0, 1.0), q(20.0, 25.0, 1.0)];
        assert_eq!(pipeline_qos(&stages).unwrap(), q(30.0, 40.0, 1.0));
    }
}
