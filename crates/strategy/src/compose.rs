//! QoS composition for multi-stage services.
//!
//! A service script "describes the dataflow of constituent microservices"
//! (paper Section IV.A): a service can be a *pipeline* of stages, each
//! stage being its own set of equivalent microservices with its own
//! execution strategy. This module composes per-stage QoS into end-to-end
//! pipeline QoS, so requirements can be checked (and budgets split) across
//! the whole dataflow.
//!
//! A pipeline aborts at the first stage whose strategy fails entirely, so
//! for stages with QoS `(c_i, l_i, r_i)`:
//!
//! * reliability: `Π r_i` — every stage must succeed;
//! * expected cost per attempt: `Σ c_i · Π_{j<i} r_j` — stage `i` only
//!   runs if all earlier stages succeeded;
//! * expected latency per attempt: `Σ l_i · Π_{j<i} r_j`.

use crate::qos::{Qos, Reliability, Requirements};

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

/// The QoS of a *successful* end-to-end run: every stage executed, so cost
/// and latency are plain sums (this is what a client that retries until
/// success experiences per successful attempt, ignoring retries).
///
/// Returns `None` for an empty stage list.
#[must_use]
pub fn pipeline_qos_on_success(stages: &[Qos]) -> Option<Qos> {
    if stages.is_empty() {
        return None;
    }
    Some(Qos {
        cost: stages.iter().map(|s| s.cost).sum(),
        latency: stages.iter().map(|s| s.latency).sum(),
        reliability: Reliability::clamped(stages.iter().map(|s| s.reliability.value()).product()),
    })
}

/// Splits an end-to-end requirement evenly across `stages` pipeline stages:
/// cost and latency budgets divide; the reliability floor takes the
/// `stages`-th root (so the product meets the original floor).
///
/// A coarse but sound default for planning per-stage strategies before any
/// observations exist; per-stage generators then optimize within their
/// slice.
///
/// Returns `None` for zero stages, and where a share is not a valid
/// requirement: a budget so small that dividing it rounds to zero.
///
/// # Examples
///
/// ```
/// use qce_strategy::compose::split_requirements;
/// use qce_strategy::Requirements;
///
/// let end_to_end = Requirements::new(200.0, 100.0, 0.81)?;
/// let per_stage = split_requirements(&end_to_end, 2).unwrap();
/// assert_eq!(per_stage.cost, 100.0);
/// assert_eq!(per_stage.latency, 50.0);
/// assert!((per_stage.reliability.value() - 0.9).abs() < 1e-12);
/// assert!(split_requirements(&end_to_end, 0).is_none());
/// # Ok::<(), qce_strategy::QosError>(())
/// ```
#[must_use]
pub fn split_requirements(end_to_end: &Requirements, stages: usize) -> Option<Requirements> {
    if stages == 0 {
        return None;
    }
    let n = stages as f64;
    Requirements::new(
        end_to_end.cost / n,
        end_to_end.latency / n,
        end_to_end.reliability.value().powf(1.0 / n),
    )
    .ok()
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
        assert!(pipeline_qos_on_success(&[]).is_none());
    }

    #[test]
    fn single_stage_is_identity() {
        let stage = q(10.0, 20.0, 0.8);
        assert_eq!(pipeline_qos(&[stage]).unwrap(), stage);
        assert_eq!(pipeline_qos_on_success(&[stage]).unwrap(), stage);
    }

    #[test]
    fn three_stage_expected_values() {
        let stages = [q(10.0, 10.0, 0.5), q(20.0, 20.0, 0.5), q(40.0, 40.0, 0.5)];
        let total = pipeline_qos(&stages).unwrap();
        // cost = 10 + 0.5·20 + 0.25·40 = 30; same for latency.
        assert!((total.cost - 30.0).abs() < 1e-12);
        assert!((total.latency - 30.0).abs() < 1e-12);
        assert!((total.reliability.value() - 0.125).abs() < 1e-12);
        let success = pipeline_qos_on_success(&stages).unwrap();
        assert_eq!(success.cost, 70.0);
        assert_eq!(success.latency, 70.0);
    }

    #[test]
    fn expected_cost_never_exceeds_success_cost() {
        let stages = [q(10.0, 15.0, 0.9), q(20.0, 25.0, 0.7), q(5.0, 5.0, 0.95)];
        let expected = pipeline_qos(&stages).unwrap();
        let success = pipeline_qos_on_success(&stages).unwrap();
        assert!(expected.cost <= success.cost);
        assert!(expected.latency <= success.latency);
        assert_eq!(expected.reliability, success.reliability);
    }

    #[test]
    fn perfect_stages_make_both_views_agree() {
        let stages = [q(10.0, 15.0, 1.0), q(20.0, 25.0, 1.0)];
        assert_eq!(
            pipeline_qos(&stages).unwrap(),
            pipeline_qos_on_success(&stages).unwrap()
        );
    }

    #[test]
    fn split_requirements_recomposes() {
        let end_to_end = Requirements::new(300.0, 150.0, 0.729).unwrap();
        let per_stage = split_requirements(&end_to_end, 3).unwrap();
        // Three stages exactly meeting the per-stage floor recompose to the
        // end-to-end floor.
        let stage = q(
            per_stage.cost,
            per_stage.latency,
            per_stage.reliability.value(),
        );
        let total = pipeline_qos_on_success(&[stage, stage, stage]).unwrap();
        assert!((total.cost - 300.0).abs() < 1e-9);
        assert!((total.latency - 150.0).abs() < 1e-9);
        assert!((total.reliability.value() - 0.729).abs() < 1e-9);
    }

    #[test]
    fn zero_stages_split_to_none() {
        let end_to_end = Requirements::new(1.0, 1.0, 0.5).unwrap();
        assert_eq!(split_requirements(&end_to_end, 0), None);
    }

    #[test]
    fn a_share_that_rounds_to_zero_splits_to_none() {
        let tiny = f64::from_bits(1);
        for (cost, latency) in [(tiny, 1.0), (1.0, tiny)] {
            let end_to_end = Requirements::new(cost, latency, 0.9).unwrap();
            assert!(split_requirements(&end_to_end, 1).is_some());
            assert_eq!(split_requirements(&end_to_end, 2), None);
        }
    }
}
