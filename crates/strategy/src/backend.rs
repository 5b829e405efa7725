//! Search-backend selection and the adaptive backend selector.
//!
//! Strategy synthesis historically offered one hard-coded policy: the
//! paper's threshold rule (exhaustive search while `|M| ≤ θ`, greedy
//! approximation beyond). [`BackendChoice`] is the operator-facing
//! selection (`--planner`) among the three planner backends, all of which
//! run through [`Generator::generate_with`](crate::Generator::generate_with):
//!
//! * `Exhaustive` — the branch-and-bound engine over `F(M)`
//!   ([`Generator::exhaustive`](crate::Generator::exhaustive)), exact but
//!   exponential in `M`;
//! * `Greedy` — Algorithm 2's approximation
//!   ([`Generator::approximation`](crate::Generator::approximation)),
//!   `O(M)` estimates, shape-committed;
//! * `Beam(W)` — the width-`W` beam search
//!   ([`Generator::beam`](crate::Generator::beam)) that interpolates
//!   between the two: width 1 *is* the greedy trajectory, width ∞ is
//!   bit-identical to the exhaustive winner.
//!
//! [`BackendChoice::Threshold`] preserves the historical behaviour and
//! [`BackendChoice::Auto`] delegates to a deterministic UCB1 bandit
//! ([`BackendSelector`]) that learns, per service, which backend yields
//! the best realized utility per unit of search effort.
//!
//! [`BackendId`] is the compact identity that keys the plan cache: two
//! backends may disagree on the winner for identical inputs, so cached
//! plans must never cross backend boundaries.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Default beam width for `--planner beam` without an explicit `:W`.
pub const DEFAULT_BEAM_WIDTH: usize = 4;

/// The compact identity of a search backend, used to key the plan cache.
///
/// Different backends can return different winners for identical inputs
/// (greedy is an approximation; beam quality depends on the width), so the
/// cache key must carry which backend — and for beam, which width —
/// produced an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackendId {
    /// Stable backend name (`"exhaustive"`, `"greedy"`, `"beam"`, …).
    pub name: &'static str,
    /// Beam width for the beam backend; `0` for widthless backends.
    pub width: u64,
}

impl BackendId {
    /// The exhaustive branch-and-bound engine (both `F(M)` and `F'(M)`
    /// modes — the cache key carries the subsets flag separately).
    pub const EXHAUSTIVE: BackendId = BackendId {
        name: "exhaustive",
        width: 0,
    };

    /// The greedy approximation (Algorithm 2).
    pub const GREEDY: BackendId = BackendId {
        name: "greedy",
        width: 0,
    };

    /// The beam-search backend at the given width.
    #[must_use]
    pub fn beam(width: usize) -> BackendId {
        BackendId {
            name: "beam",
            width: width as u64,
        }
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width > 0 {
            write!(f, "{}:{}", self.name, self.width)
        } else {
            f.write_str(self.name)
        }
    }
}

/// Which planning backend a generator (or the runtime's planner) should
/// run. Parsed from `--planner` on the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BackendChoice {
    /// The paper's Algorithm 2 rule: exhaustive while `|M| ≤ θ`, greedy
    /// beyond. The default — preserves historical behaviour.
    #[default]
    Threshold,
    /// Always the exhaustive branch-and-bound search.
    Exhaustive,
    /// Always the greedy approximation.
    Greedy,
    /// Beam search at the given width (≥ 1).
    Beam(usize),
    /// Let the runtime's UCB1 bandit ([`BackendSelector`]) pick per
    /// re-plan. A bare [`Generator`](crate::Generator) resolves this like
    /// `Threshold`; the runtime resolves it to a concrete arm before
    /// searching.
    Auto,
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendChoice::Threshold => f.write_str("threshold"),
            BackendChoice::Exhaustive => f.write_str("exhaustive"),
            BackendChoice::Greedy => f.write_str("greedy"),
            BackendChoice::Beam(w) => write!(f, "beam:{w}"),
            BackendChoice::Auto => f.write_str("auto"),
        }
    }
}

/// Error from parsing a [`BackendChoice`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    input: String,
}

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown planner '{}' (expected threshold|exhaustive|greedy|beam[:W]|auto, W >= 1)",
            self.input
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for BackendChoice {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseBackendError {
            input: s.to_string(),
        };
        match s {
            "threshold" => Ok(BackendChoice::Threshold),
            "exhaustive" => Ok(BackendChoice::Exhaustive),
            "greedy" => Ok(BackendChoice::Greedy),
            "auto" => Ok(BackendChoice::Auto),
            "beam" => Ok(BackendChoice::Beam(DEFAULT_BEAM_WIDTH)),
            _ => {
                let width = s.strip_prefix("beam:").ok_or_else(err)?;
                let width: usize = width.parse().map_err(|_| err())?;
                if width == 0 {
                    return Err(err());
                }
                Ok(BackendChoice::Beam(width))
            }
        }
    }
}

/// Resolves a [`BackendChoice`] to the concrete backend — `Exhaustive`,
/// `Greedy` or `Beam(W)` — that a search over `m` microservices under
/// threshold `θ` runs. `Threshold` and `Auto` both resolve via the paper
/// rule here — the runtime's bandit replaces `Auto` with a concrete arm
/// *before* reaching the generator.
#[must_use]
pub fn resolve(choice: BackendChoice, m: usize, threshold: usize) -> BackendChoice {
    match choice {
        BackendChoice::Threshold | BackendChoice::Auto if m <= threshold => {
            BackendChoice::Exhaustive
        }
        BackendChoice::Threshold | BackendChoice::Auto => BackendChoice::Greedy,
        concrete => concrete,
    }
}

/// A deterministic UCB1 bandit over search backends.
///
/// One selector per service; each re-plan under `--planner auto` pulls an
/// arm, runs that backend, and feeds back the realized utility and search
/// effort. The reward of a pull is the utility squashed into `(0, 1)` and
/// damped by the logarithm of the search effort:
///
/// ```text
/// reward = (0.5 + 0.5·U/(1+|U|)) / (1 + ln(1 + evaluated))
/// ```
///
/// so an arm only justifies a large search space by a materially better
/// utility. The effort term uses
/// [`Generated::evaluated`](crate::Generated::evaluated) — the
/// *considered* candidate count, which is deterministic across pruning and
/// parallelism settings — never wall-clock time, keeping two identical
/// runs byte-identical.
///
/// Arm selection is fully deterministic: untried eligible arms are pulled
/// first in arm order, then the arm maximizing `mean + sqrt(2·ln(total) /
/// pulls)` with ties broken toward the lowest arm index. There is no
/// random exploration, so replaying a run reproduces every choice.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSelector {
    arms: Vec<BackendChoice>,
    pulls: Vec<u64>,
    means: Vec<f64>,
}

impl Default for BackendSelector {
    fn default() -> Self {
        BackendSelector::new(vec![
            BackendChoice::Exhaustive,
            BackendChoice::Greedy,
            BackendChoice::Beam(DEFAULT_BEAM_WIDTH),
        ])
    }
}

impl BackendSelector {
    /// Creates a selector over the given concrete arms (callers should
    /// not include `Threshold` or `Auto` — arms are what `Auto` resolves
    /// *to*).
    #[must_use]
    pub fn new(arms: Vec<BackendChoice>) -> Self {
        let n = arms.len();
        BackendSelector {
            arms,
            pulls: vec![0; n],
            means: vec![0.0; n],
        }
    }

    /// The configured arms.
    #[must_use]
    pub fn arms(&self) -> &[BackendChoice] {
        &self.arms
    }

    /// How often `arm` has been pulled.
    #[must_use]
    pub fn pulls(&self, arm: usize) -> u64 {
        self.pulls.get(arm).copied().unwrap_or(0)
    }

    /// The running mean reward of `arm`.
    #[must_use]
    pub fn mean(&self, arm: usize) -> f64 {
        self.means.get(arm).copied().unwrap_or(0.0)
    }

    /// Which arms are eligible for a search over `m` microservices under
    /// threshold `θ`: the exhaustive arm only below the threshold (its
    /// cost is exponential in `m`), every other arm always.
    #[must_use]
    pub fn eligibility(&self, m: usize, threshold: usize) -> Vec<bool> {
        self.arms
            .iter()
            .map(|arm| !matches!(arm, BackendChoice::Exhaustive) || m <= threshold)
            .collect()
    }

    /// Picks the next arm among the `eligible` ones (parallel to
    /// [`BackendSelector::arms`]); `None` if nothing is eligible.
    #[must_use]
    pub fn choose(&self, eligible: &[bool]) -> Option<usize> {
        let live = |i: usize| eligible.get(i).copied().unwrap_or(false);
        // Untried arms first, in fixed arm order — deterministic
        // round-robin exploration.
        if let Some(i) = (0..self.arms.len()).find(|&i| live(i) && self.pulls[i] == 0) {
            return Some(i);
        }
        let total: u64 = (0..self.arms.len())
            .filter(|&i| live(i))
            .map(|i| self.pulls[i])
            .sum();
        let total = total.max(1) as f64;
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.arms.len() {
            if !live(i) {
                continue;
            }
            let bonus = (2.0 * total.ln() / self.pulls[i] as f64).sqrt();
            let score = self.means[i] + bonus;
            // Strict '>' keeps ties on the lowest arm index.
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((i, score));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Feeds back one pull's outcome: the realized utility of the chosen
    /// plan and the search effort it took
    /// ([`Generated::evaluated`](crate::Generated::evaluated)).
    pub fn record(&mut self, arm: usize, utility: f64, evaluated: u64) {
        if arm >= self.arms.len() {
            return;
        }
        let reward = Self::reward(utility, evaluated);
        self.pulls[arm] += 1;
        let n = self.pulls[arm] as f64;
        self.means[arm] += (reward - self.means[arm]) / n;
    }

    /// The reward function (see the type docs): utility squashed into
    /// `(0, 1)`, log-damped by search effort.
    #[must_use]
    pub fn reward(utility: f64, evaluated: u64) -> f64 {
        let squashed = 0.5 + 0.5 * utility / (1.0 + utility.abs());
        squashed / (1.0 + (1.0 + evaluated as f64).ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_choice_parse_and_display_round_trip() {
        for (text, choice) in [
            ("threshold", BackendChoice::Threshold),
            ("exhaustive", BackendChoice::Exhaustive),
            ("greedy", BackendChoice::Greedy),
            ("beam:7", BackendChoice::Beam(7)),
            ("auto", BackendChoice::Auto),
        ] {
            assert_eq!(text.parse::<BackendChoice>().unwrap(), choice);
            assert_eq!(choice.to_string(), text);
        }
        assert_eq!(
            "beam".parse::<BackendChoice>().unwrap(),
            BackendChoice::Beam(DEFAULT_BEAM_WIDTH)
        );
        for bad in ["beam:0", "beam:", "beam:x", "dfs", ""] {
            assert!(bad.parse::<BackendChoice>().is_err(), "{bad}");
        }
        assert_eq!(BackendChoice::default(), BackendChoice::Threshold);
    }

    #[test]
    fn backend_id_display_and_cache_identity() {
        assert_eq!(BackendId::EXHAUSTIVE.to_string(), "exhaustive");
        assert_eq!(BackendId::beam(3).to_string(), "beam:3");
        assert_ne!(BackendId::beam(3), BackendId::beam(4));
        assert_ne!(BackendId::GREEDY, BackendId::EXHAUSTIVE);
    }

    #[test]
    fn resolve_follows_the_threshold_rule() {
        for choice in [BackendChoice::Threshold, BackendChoice::Auto] {
            assert_eq!(resolve(choice, 4, 6), BackendChoice::Exhaustive);
            assert_eq!(resolve(choice, 8, 6), BackendChoice::Greedy);
        }
        assert_eq!(
            resolve(BackendChoice::Beam(2), 8, 6),
            BackendChoice::Beam(2)
        );
        assert_eq!(
            resolve(BackendChoice::Exhaustive, 99, 6),
            BackendChoice::Exhaustive
        );
    }

    #[test]
    fn selector_pulls_untried_arms_first_in_order() {
        let mut sel = BackendSelector::default();
        let all = vec![true; sel.arms().len()];
        assert_eq!(sel.choose(&all), Some(0));
        sel.record(0, 1.0, 64_743);
        assert_eq!(sel.choose(&all), Some(1));
        sel.record(1, 0.9, 10);
        assert_eq!(sel.choose(&all), Some(2));
        sel.record(2, 0.95, 40);
        // All arms tried: UCB1 takes over; the greedy arm's cheap effort
        // gives it the best damped reward here.
        assert_eq!(sel.choose(&all), Some(1));
    }

    #[test]
    fn selector_respects_eligibility_mask() {
        let mut sel = BackendSelector::default();
        let masked = sel.eligibility(10, 6);
        assert_eq!(masked, vec![false, true, true]);
        assert_eq!(sel.choose(&masked), Some(1), "exhaustive masked out");
        sel.record(1, 0.5, 18);
        assert_eq!(sel.choose(&masked), Some(2));
        sel.record(2, 0.5, 60);
        assert_ne!(sel.choose(&masked), Some(0));
        assert_eq!(sel.choose(&[false, false, false]), None);
    }

    #[test]
    fn reward_prefers_cheap_searches_at_equal_utility() {
        let cheap = BackendSelector::reward(0.8, 10);
        let dear = BackendSelector::reward(0.8, 64_743);
        assert!(cheap > dear);
        // …but a large utility edge still wins against log-damped cost.
        assert!(BackendSelector::reward(5.0, 64_743) > BackendSelector::reward(-5.0, 10));
        // Squashing keeps every reward positive and bounded.
        for u in [-1e9, -1.0, 0.0, 1.0, 1e9] {
            let r = BackendSelector::reward(u, 1);
            assert!(r > 0.0 && r < 1.0, "u={u} r={r}");
        }
    }

    #[test]
    fn selector_is_deterministic_under_replay() {
        let run = || {
            let mut sel = BackendSelector::default();
            let mut picks = Vec::new();
            for step in 0..20u64 {
                let eligible = sel.eligibility(if step % 3 == 0 { 8 } else { 5 }, 6);
                let arm = sel.choose(&eligible).unwrap();
                picks.push(arm);
                let utility = 0.5 + (step as f64) * 0.01 - (arm as f64) * 0.05;
                sel.record(arm, utility, 10 + 100 * arm as u64);
            }
            (picks, sel)
        };
        let (picks_a, sel_a) = run();
        let (picks_b, sel_b) = run();
        assert_eq!(picks_a, picks_b);
        assert_eq!(sel_a, sel_b);
    }
}
