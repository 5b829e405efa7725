//! The QoS utility index (paper Section IV.C, Equation 1).
//!
//! Edge applications often cannot pick among alternative services the way
//! cloud applications do, so the binary "SLA satisfied / not satisfied"
//! model is replaced by a graded *utility index*. For each attribute `n`
//! with requirement `Q_n` and estimated value `q_n(s)`:
//!
//! ```text
//!          ⎧ −k · |q_n − Q_n| / Q_n   if q_n ⪯ Q_n   (requirement missed)
//! u_n(s) = ⎨
//!          ⎩   |q_n − Q_n| / Q_n      if q_n ≻ Q_n   (requirement exceeded)
//! ```
//!
//! with `k > 1` penalizing unsatisfied attributes more steeply than
//! over-delivery is rewarded. The overall index is `U(s) = Σ_n u_n(s)`.
//! Unlike the normalization of prior work (min–max over all candidate
//! services), this normalizes against the *requirement*, so outlier
//! microservices cannot skew the scale.

use serde::{Deserialize, Serialize};

use crate::error::QosError;
use crate::qos::{Attribute, Qos, Requirements};

/// Default penalty multiplier used when none is specified.
///
/// The paper's walk-through in Section IV.C uses `k = 2` and `k = 3`; 2 is
/// the smallest integer satisfying `k > 1`.
pub const DEFAULT_PENALTY: f64 = 2.0;

/// The utility index of Equation 1, parameterized by the penalty factor
/// `k`.
///
/// # Examples
///
/// Section IV.C's illustration: `s₁` meets every requirement exactly
/// (utility 0); `s₂` improves cost and reliability by 10% each at the
/// expense of 10% extra latency — worth 0 when `k = 2` but negative when
/// `k = 3`:
///
/// ```
/// use qce_strategy::{Qos, Requirements, UtilityIndex};
///
/// let req = Requirements::new(100.0, 100.0, 0.5)?;
/// let s1 = Qos::new(100.0, 100.0, 0.5)?;
/// let s2 = Qos::new(90.0, 110.0, 0.55)?;
///
/// let k2 = UtilityIndex::new(2.0)?;
/// let k3 = UtilityIndex::new(3.0)?;
/// assert_eq!(k2.utility(&s1, &req), 0.0);
/// assert!((k2.utility(&s2, &req) - 0.0).abs() < 1e-12);
/// assert!((k3.utility(&s2, &req) + 0.1).abs() < 1e-12);
/// # Ok::<(), qce_strategy::QosError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilityIndex {
    k: f64,
}

impl UtilityIndex {
    /// Creates a utility index with penalty factor `k`.
    ///
    /// # Errors
    ///
    /// Returns [`QosError::InvalidPenalty`] unless `k` is finite and
    /// greater than 1.
    pub fn new(k: f64) -> Result<Self, QosError> {
        if k.is_finite() && k > 1.0 {
            Ok(UtilityIndex { k })
        } else {
            Err(QosError::InvalidPenalty(k))
        }
    }

    /// The penalty factor `k`.
    #[must_use]
    pub const fn k(&self) -> f64 {
        self.k
    }

    /// Utility contribution `u_n(s)` of a single attribute.
    ///
    /// `value` and `requirement` must share the attribute's unit
    /// (reliability as a probability).
    #[must_use]
    pub(crate) fn attribute_utility(&self, attr: Attribute, value: f64, requirement: f64) -> f64 {
        debug_assert!(requirement > 0.0, "requirements are validated positive");
        let distance = (value - requirement).abs() / requirement;
        match attr.polarity().compare(value, requirement) {
            std::cmp::Ordering::Greater => distance,
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Less => -self.k * distance,
        }
    }

    /// Overall utility `U(s) = Σ_n u_n(s)` of a QoS triple against the
    /// requirements.
    #[must_use]
    pub fn utility(&self, qos: &Qos, req: &Requirements) -> f64 {
        Attribute::ALL
            .iter()
            .map(|&attr| self.attribute_utility(attr, qos.attribute(attr), req.attribute(attr)))
            .sum()
    }

    /// Per-attribute breakdown of the utility, in `{c, l, r}` order.
    #[must_use]
    pub fn breakdown(&self, qos: &Qos, req: &Requirements) -> [(Attribute, f64); 3] {
        let mut out = [(Attribute::Cost, 0.0); 3];
        for (slot, &attr) in out.iter_mut().zip(Attribute::ALL.iter()) {
            *slot = (
                attr,
                self.attribute_utility(attr, qos.attribute(attr), req.attribute(attr)),
            );
        }
        out
    }
}

impl Default for UtilityIndex {
    fn default() -> Self {
        UtilityIndex { k: DEFAULT_PENALTY }
    }
}

/// Returns `true` when `lhs` Pareto-dominates `rhs`: no attribute is worse
/// and at least one is strictly better.
#[must_use]
pub fn dominates(lhs: &Qos, rhs: &Qos) -> bool {
    let mut strictly_better = false;
    for &attr in &Attribute::ALL {
        match attr
            .polarity()
            .compare(lhs.attribute(attr), rhs.attribute(attr))
        {
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Greater => strictly_better = true,
            std::cmp::Ordering::Equal => {}
        }
    }
    strictly_better
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> Requirements {
        Requirements::new(100.0, 100.0, 0.97).unwrap()
    }

    #[test]
    fn penalty_validation() {
        assert!(UtilityIndex::new(2.0).is_ok());
        assert!(UtilityIndex::new(1.0).is_err());
        assert!(UtilityIndex::new(0.5).is_err());
        assert!(UtilityIndex::new(f64::NAN).is_err());
        assert!(UtilityIndex::new(f64::INFINITY).is_err());
        assert_eq!(UtilityIndex::default().k(), DEFAULT_PENALTY);
    }

    #[test]
    fn exact_satisfaction_scores_zero() {
        let ui = UtilityIndex::default();
        let q = Qos::new(100.0, 100.0, 0.97).unwrap();
        assert_eq!(ui.utility(&q, &req()), 0.0);
    }

    #[test]
    fn over_delivery_rewarded_linearly() {
        let ui = UtilityIndex::default();
        // 20% cheaper, everything else exact: u = +0.2.
        let q = Qos::new(80.0, 100.0, 0.97).unwrap();
        assert!((ui.utility(&q, &req()) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn violation_penalized_k_times() {
        let ui = UtilityIndex::new(3.0).unwrap();
        // 20% over the cost budget: u = -3 * 0.2 = -0.6.
        let q = Qos::new(120.0, 100.0, 0.97).unwrap();
        assert!((ui.utility(&q, &req()) + 0.6).abs() < 1e-12);
    }

    #[test]
    fn reliability_direction_is_higher_is_better() {
        let ui = UtilityIndex::new(2.0).unwrap();
        let better = Qos::new(100.0, 100.0, 0.99).unwrap();
        let worse = Qos::new(100.0, 100.0, 0.90).unwrap();
        assert!(ui.utility(&better, &req()) > 0.0);
        assert!(ui.utility(&worse, &req()) < 0.0);
    }

    #[test]
    fn section_4c_worked_example() {
        // s2 improves cost & reliability by 5% each, pays 10% latency:
        // with any k > 1, U(s2) = 0.05 + 0.05 - k*0.10 < 0 = U(s1).
        let r = Requirements::new(100.0, 100.0, 0.5).unwrap();
        let s1 = Qos::new(100.0, 100.0, 0.5).unwrap();
        let s2 = Qos::new(95.0, 110.0, 0.525).unwrap();
        for k in [2.0, 3.0, 10.0] {
            let ui = UtilityIndex::new(k).unwrap();
            assert!(ui.utility(&s1, &r) > ui.utility(&s2, &r), "k={k}");
        }
    }

    #[test]
    fn breakdown_sums_to_utility() {
        let ui = UtilityIndex::new(2.5).unwrap();
        let q = Qos::new(140.0, 60.0, 0.95).unwrap();
        let total: f64 = ui.breakdown(&q, &req()).iter().map(|(_, u)| u).sum();
        assert!((total - ui.utility(&q, &req())).abs() < 1e-12);
    }

    #[test]
    fn dominance_relation() {
        let q1 = Qos::new(50.0, 50.0, 0.9).unwrap();
        let q2 = Qos::new(60.0, 50.0, 0.9).unwrap();
        let q3 = Qos::new(40.0, 70.0, 0.9).unwrap();
        assert!(dominates(&q1, &q2));
        assert!(!dominates(&q2, &q1));
        assert!(!dominates(&q1, &q3), "incomparable");
        assert!(!dominates(&q3, &q1), "incomparable");
        assert!(!dominates(&q1, &q1), "no self-domination");
    }

    #[test]
    fn higher_utility_for_dominating_qos() {
        // Utility is monotone with respect to dominance.
        let ui = UtilityIndex::default();
        let better = Qos::new(50.0, 90.0, 0.99).unwrap();
        let worse = Qos::new(70.0, 95.0, 0.98).unwrap();
        assert!(dominates(&better, &worse));
        assert!(ui.utility(&better, &req()) > ui.utility(&worse, &req()));
    }
}
