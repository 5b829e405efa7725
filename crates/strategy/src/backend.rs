//! Search-backend selection.
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
//! * `Beam(W)` — the width-`W` beam search that interpolates
//!   between the two: width 1 *is* the greedy trajectory, width ∞ is
//!   bit-identical to the exhaustive winner.
//!
//! [`BackendChoice::Threshold`] (the default) is the paper's rule itself:
//! `Exhaustive` while `|M| ≤ θ`, `Greedy` beyond.
//!
//! A choice is the *request*; what ran is stamped on the result as a
//! [`Method`](crate::Method). Two backends may disagree on the winner for
//! identical inputs, so the plan cache keys each entry on the search the
//! choice resolved to (exhaustive, or the beam at its width) and cached
//! plans never cross backend boundaries.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Default beam width for `--planner beam` without an explicit `:W`.
pub const DEFAULT_BEAM_WIDTH: usize = 4;

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
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendChoice::Threshold => f.write_str("threshold"),
            BackendChoice::Exhaustive => f.write_str("exhaustive"),
            BackendChoice::Greedy => f.write_str("greedy"),
            BackendChoice::Beam(w) => write!(f, "beam:{w}"),
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
            "unknown planner '{}' (expected threshold|exhaustive|greedy|beam[:W], W >= 1)",
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
        ] {
            assert_eq!(text.parse::<BackendChoice>().unwrap(), choice);
            assert_eq!(choice.to_string(), text);
            let json = serde_json::to_string(&choice).unwrap();
            assert_eq!(
                serde_json::from_str::<BackendChoice>(&json).unwrap(),
                choice
            );
        }
        assert_eq!(
            "beam".parse::<BackendChoice>().unwrap(),
            BackendChoice::Beam(DEFAULT_BEAM_WIDTH)
        );
        for bad in ["beam:0", "beam:", "beam:x", "dfs", "", "auto"] {
            assert!(bad.parse::<BackendChoice>().is_err(), "{bad}");
        }
        assert_eq!(
            "auto".parse::<BackendChoice>().unwrap_err().to_string(),
            "unknown planner 'auto' (expected threshold|exhaustive|greedy|beam[:W], W >= 1)"
        );
        assert!(serde_json::from_str::<BackendChoice>("\"Auto\"").is_err());
        assert_eq!(BackendChoice::default(), BackendChoice::Threshold);
    }
}
