//! Execution-outcome vocabulary of the runtime's strategy walker.
//!
//! A strategy tree (Seq `-` / Par `*`, [`Node`](crate::Node)) can be
//! *executed* under more than one notion of "done":
//!
//! * **first success** — the plain Section III.A semantics: the first
//!   microservice invocation that succeeds ends the whole strategy;
//! * **quorum** — the Section VII future-work extension: execution keeps
//!   going until `k` invocations return byte-identical payloads.
//!
//! Only the runtime's engine takes a [`CompletionPolicy`] (one traversal
//! core serves both interpretations) and reports early termination with
//! a [`PruneReason`]; the simulator's walker is first-success only.

use serde::{Deserialize, Serialize};
use std::fmt;

/// When is a strategy execution *complete*?
///
/// Parameterizes the runtime's execution engine (`execute_scoped` and the
/// gateway), which rejects a zero quorum with a typed error. The policy
/// decides two things during the walk:
///
/// * whether a successful leaf ends the strategy (`FirstSuccess`: yes;
///   `Quorum`: only once `quorum` byte-equal payloads agree);
/// * whether a Seq node *absorbs* a child's success (`FirstSuccess`:
///   a succeeding fail-over leg stops the chain; `Quorum`: every stage
///   still runs so it can contribute votes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompletionPolicy {
    /// Stop at the first successful invocation (paper Section III.A).
    FirstSuccess,
    /// Keep executing until `quorum` invocations agree byte-for-byte
    /// (paper Section VII). `quorum` must be at least 1; `Quorum { 1 }`
    /// still differs from `FirstSuccess` because Seq stages are not
    /// absorbed by earlier successes.
    Quorum {
        /// Number of byte-identical payloads required for agreement.
        quorum: usize,
    },
}

impl fmt::Display for CompletionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompletionPolicy::FirstSuccess => write!(f, "first-success"),
            CompletionPolicy::Quorum { quorum } => write!(f, "quorum({quorum})"),
        }
    }
}

/// Why an execution was cut short before its strategy finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PruneReason {
    /// The request's budget was cancelled from outside (client hangup,
    /// service eviction).
    Cancelled,
    /// The request's deadline passed while legs were still pending.
    DeadlineExceeded,
}

impl fmt::Display for PruneReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PruneReason::Cancelled => write!(f, "cancelled"),
            PruneReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(CompletionPolicy::FirstSuccess.to_string(), "first-success");
        assert_eq!(
            CompletionPolicy::Quorum { quorum: 2 }.to_string(),
            "quorum(2)"
        );
        assert_eq!(PruneReason::Cancelled.to_string(), "cancelled");
        assert_eq!(
            PruneReason::DeadlineExceeded.to_string(),
            "deadline exceeded"
        );
    }

    #[test]
    fn serde_round_trip() {
        for policy in [
            CompletionPolicy::FirstSuccess,
            CompletionPolicy::Quorum { quorum: 3 },
        ] {
            let json = serde_json::to_string(&policy).unwrap();
            let back: CompletionPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(policy, back);
        }
        for reason in [PruneReason::Cancelled, PruneReason::DeadlineExceeded] {
            let json = serde_json::to_string(&reason).unwrap();
            let back: PruneReason = serde_json::from_str(&json).unwrap();
            assert_eq!(reason, back);
        }
    }
}
