//! Completion-policy state: the per-request mutable state behind a
//! [`CompletionPolicy`](qce_strategy::CompletionPolicy) — the first-success
//! winner slot, or the quorum vote tally.

use std::collections::HashMap;
use std::time::Duration;

use qce_strategy::CompletionPolicy;

/// The earliest successful invocation under first-success semantics.
#[derive(Debug)]
pub(crate) struct Win {
    pub at: Duration,
    pub payload: Vec<u8>,
}

/// Byte-equality vote tally for quorum execution.
#[derive(Debug, Default)]
pub(crate) struct VoteBox {
    /// payload → (votes, first-seen order)
    tally: HashMap<Vec<u8>, (usize, usize)>,
    pub total: usize,
    pub decided_at: Option<Duration>,
}

impl VoteBox {
    /// Registers a vote; returns the new count for this payload.
    pub fn vote(&mut self, payload: Vec<u8>) -> usize {
        let order = self.tally.len();
        let entry = self.tally.entry(payload).or_insert((0, order));
        entry.0 += 1;
        self.total += 1;
        entry.0
    }

    /// The plurality payload (ties broken by first-seen order), moved out
    /// of the tally.
    fn into_winner(self) -> (Option<Vec<u8>>, usize) {
        self.tally
            .into_iter()
            .max_by(|(_, (va, oa)), (_, (vb, ob))| va.cmp(vb).then(ob.cmp(oa)))
            .map_or((None, 0), |(payload, (votes, _))| (Some(payload), votes))
    }
}

/// The mutable per-request state of a completion policy: it decides when
/// the walk halts and assembles the final [`Completion`]. Owned by the
/// request's state in the event core and only ever reached through `&mut`
/// under the core lock, so its fields are plain values.
#[derive(Debug)]
pub(crate) enum PolicyState {
    /// First success ends the strategy (paper Section III.A).
    FirstSuccess { win: Option<Win> },
    /// Execution continues until `quorum` byte-equal payloads agree
    /// (paper Section VII).
    Quorum { quorum: usize, votes: VoteBox },
}

/// How an execution completed, per policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// First-success semantics: did any invocation succeed, and with what.
    First {
        /// Whether any microservice succeeded.
        success: bool,
        /// Payload of the earliest successful invocation.
        payload: Option<Vec<u8>>,
    },
    /// Quorum semantics: the vote outcome.
    Agreement {
        /// The payload that reached quorum (or the plurality payload).
        payload: Option<Vec<u8>>,
        /// Votes received by the winning payload.
        votes: usize,
        /// Total successful invocations (votes cast).
        votes_cast: usize,
        /// Whether the required quorum was reached.
        agreed: bool,
    },
}

impl Completion {
    /// Whether the execution counts as successful: a success under
    /// first-success semantics, agreement under quorum semantics.
    #[must_use]
    pub fn is_success(&self) -> bool {
        match self {
            Completion::First { success, .. } => *success,
            Completion::Agreement { agreed, .. } => *agreed,
        }
    }

    /// The winning payload, if any.
    #[must_use]
    pub fn payload(&self) -> Option<&Vec<u8>> {
        match self {
            Completion::First { payload, .. } | Completion::Agreement { payload, .. } => {
                payload.as_ref()
            }
        }
    }
}

impl PolicyState {
    pub fn new(policy: CompletionPolicy) -> Self {
        match policy {
            CompletionPolicy::FirstSuccess => PolicyState::FirstSuccess { win: None },
            CompletionPolicy::Quorum { quorum } => {
                assert!(quorum >= 1, "quorum must be at least 1");
                PolicyState::Quorum {
                    quorum,
                    votes: VoteBox::default(),
                }
            }
        }
    }

    /// Whether the walk has globally halted (strategy won / quorum met).
    pub fn halted(&self) -> bool {
        match self {
            PolicyState::FirstSuccess { win } => win.is_some(),
            PolicyState::Quorum { votes, .. } => votes.decided_at.is_some(),
        }
    }

    /// Whether a Seq node returns as soon as a child succeeds.
    pub fn seq_absorbs_success(&self) -> bool {
        matches!(self, PolicyState::FirstSuccess { .. })
    }

    /// Registers a successful invocation that completed `at` after the
    /// execution started.
    pub fn on_success(&mut self, payload: Vec<u8>, at: Duration) {
        match self {
            PolicyState::FirstSuccess { win } => {
                if win.as_ref().is_none_or(|w| at < w.at) {
                    *win = Some(Win { at, payload });
                }
            }
            PolicyState::Quorum { quorum, votes } => {
                let count = votes.vote(payload);
                if count >= *quorum && votes.decided_at.is_none() {
                    votes.decided_at = Some(at);
                }
            }
        }
    }

    /// Assembles the completion and latency once the walk has finished.
    /// `fallback_latency` (start-to-now) is reported when the policy never
    /// decided — total failure, or quorum not reached.
    pub fn finish(self, fallback_latency: Duration) -> (Completion, Duration) {
        match self {
            PolicyState::FirstSuccess { win: Some(win) } => (
                Completion::First {
                    success: true,
                    payload: Some(win.payload),
                },
                win.at,
            ),
            PolicyState::FirstSuccess { win: None } => (
                Completion::First {
                    success: false,
                    payload: None,
                },
                fallback_latency,
            ),
            PolicyState::Quorum { quorum, votes } => {
                let latency = votes.decided_at.unwrap_or(fallback_latency);
                let votes_cast = votes.total;
                let (payload, winner_votes) = votes.into_winner();
                (
                    Completion::Agreement {
                        payload,
                        votes: winner_votes,
                        votes_cast,
                        agreed: winner_votes >= quorum,
                    },
                    latency,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_keeps_the_earliest_win() {
        let mut state = PolicyState::new(CompletionPolicy::FirstSuccess);
        assert!(!state.halted());
        state.on_success(vec![2], Duration::from_millis(8));
        assert!(state.halted());
        // A slower success that finished later must not displace it.
        state.on_success(vec![9], Duration::from_millis(20));
        // An earlier completion (raced in) must.
        state.on_success(vec![1], Duration::from_millis(3));
        let (completion, latency) = state.finish(Duration::from_millis(99));
        assert_eq!(
            completion,
            Completion::First {
                success: true,
                payload: Some(vec![1])
            }
        );
        assert_eq!(latency, Duration::from_millis(3));
    }

    #[test]
    fn first_success_failure_uses_fallback_latency() {
        let state = PolicyState::new(CompletionPolicy::FirstSuccess);
        let (completion, latency) = state.finish(Duration::from_millis(42));
        assert!(!completion.is_success());
        assert_eq!(latency, Duration::from_millis(42));
    }

    #[test]
    fn quorum_decides_at_kth_agreeing_vote() {
        let mut state = PolicyState::new(CompletionPolicy::Quorum { quorum: 2 });
        state.on_success(vec![7], Duration::from_millis(1));
        assert!(!state.halted());
        state.on_success(vec![8], Duration::from_millis(2));
        assert!(!state.halted(), "disagreeing vote does not decide");
        state.on_success(vec![7], Duration::from_millis(5));
        assert!(state.halted());
        let (completion, latency) = state.finish(Duration::from_millis(99));
        assert_eq!(
            completion,
            Completion::Agreement {
                payload: Some(vec![7]),
                votes: 2,
                votes_cast: 3,
                agreed: true
            }
        );
        assert_eq!(latency, Duration::from_millis(5));
    }

    #[test]
    fn quorum_plurality_tie_breaks_on_first_seen() {
        let mut state = PolicyState::new(CompletionPolicy::Quorum { quorum: 3 });
        state.on_success(vec![1], Duration::from_millis(1));
        state.on_success(vec![2], Duration::from_millis(2));
        let (completion, latency) = state.finish(Duration::from_millis(10));
        assert_eq!(
            completion,
            Completion::Agreement {
                payload: Some(vec![1]),
                votes: 1,
                votes_cast: 2,
                agreed: false
            }
        );
        assert_eq!(latency, Duration::from_millis(10), "undecided: fallback");
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn zero_quorum_rejected() {
        let _ = PolicyState::new(CompletionPolicy::Quorum { quorum: 0 });
    }
}
