//! Quorum execution: the paper's future-work direction of using equivalent
//! microservices "to protect from malicious devices that return fake
//! results" (Section VII).
//!
//! Instead of short-circuiting at the *first* success, the executor keeps
//! following the strategy until some payload has been returned by `q`
//! distinct microservices (byte-equal agreement), then answers with that
//! payload. Equivalent microservices compute the same fact by different
//! means, so agreement across them is evidence against a fabricated
//! result. With `q = 1` this degenerates to the standard first-success
//! semantics.
//!
//! Cost follows Assumption 2 unchanged: every started invocation is charged
//! in full, so quorum execution makes the reliability/cost trade-off
//! explicit — a quorum of 2 over a fail-over chain costs roughly twice a
//! single-success run.
//!
//! Since the unification of the strategy walkers, these entry points are
//! thin wrappers over [`engine::execute_scoped`](crate::engine) with
//! [`CompletionPolicy::Quorum`]: the same walker serves first-success and
//! quorum execution, differing only in when a Seq chain advances and when
//! the walk halts.

use std::sync::Arc;
use std::time::Duration;

use qce_strategy::{CompletionPolicy, Strategy};

use crate::clock::{Clock, WallClock};
use crate::collector::Collector;
use crate::device::Provider;
use crate::engine::{self, Budget, Completion};
use crate::message::{Invocation, InvocationOutcome, RuntimeError};

/// Result of a quorum execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QuorumOutcome {
    /// The payload that reached quorum (or, failing that, the plurality
    /// payload among successful invocations).
    pub payload: Option<Vec<u8>>,
    /// Votes received by the winning payload.
    pub votes: usize,
    /// Total successful invocations (votes cast).
    pub votes_cast: usize,
    /// Whether the required quorum was reached.
    pub agreed: bool,
    /// Time until the quorum was reached (or everything finished).
    pub latency: Duration,
    /// Total cost charged (Assumption 2).
    pub cost: f64,
    /// Every invocation that started.
    pub invocations: Vec<InvocationOutcome>,
}

impl From<engine::EngineOutcome> for QuorumOutcome {
    fn from(outcome: engine::EngineOutcome) -> Self {
        let (payload, votes, votes_cast, agreed) = match outcome.completion {
            Completion::Agreement {
                payload,
                votes,
                votes_cast,
                agreed,
            } => (payload, votes, votes_cast, agreed),
            Completion::First { success, payload } => {
                let votes = usize::from(success);
                (payload, votes, votes, success)
            }
        };
        QuorumOutcome {
            payload,
            votes,
            votes_cast,
            agreed,
            latency: outcome.latency,
            cost: outcome.cost,
            invocations: outcome.invocations,
        }
    }
}

/// Executes `strategy` until `quorum` distinct microservices return the
/// same payload.
///
/// The strategy's control flow is reinterpreted for redundancy: a
/// microservice's *success* no longer terminates the run — execution
/// continues (sequential stages advance, parallel races keep running)
/// until the quorum is met or every microservice has been tried. Failures
/// still gate sequential fall-through exactly as before.
///
/// # Errors
///
/// Returns [`RuntimeError::NoProvider`] if the strategy references an index
/// with no resolved provider.
///
/// # Panics
///
/// Panics if `quorum` is zero.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use qce_runtime::{execute_with_quorum, FnProvider, Invocation, Provider};
/// use qce_strategy::Strategy;
///
/// // Two honest sensors and one compromised device.
/// let honest1 = FnProvider::new("a", "temp", 10.0, |_| Ok(vec![21]));
/// let liar = FnProvider::new("b", "temp", 10.0, |_| Ok(vec![99]));
/// let honest2 = FnProvider::new("c", "temp", 10.0, |_| Ok(vec![21]));
/// let providers: Vec<Arc<dyn Provider>> = vec![honest1, liar, honest2];
///
/// let outcome = execute_with_quorum(
///     &Strategy::parse("a-b-c")?,
///     &providers,
///     &Invocation::new(1, "temp", vec![]),
///     None,
///     2,
/// )?;
/// assert!(outcome.agreed);
/// assert_eq!(outcome.payload, Some(vec![21])); // the liar is outvoted
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn execute_with_quorum(
    strategy: &Strategy,
    providers: &[Arc<dyn Provider>],
    request: &Invocation,
    collector: Option<&Collector>,
    quorum: usize,
) -> Result<QuorumOutcome, RuntimeError> {
    execute_with_quorum_clock(
        strategy,
        providers,
        request,
        collector,
        quorum,
        &WallClock::new(),
    )
}

/// [`execute_with_quorum`] on an explicit [`Clock`], allowing deterministic
/// virtual-time execution (see [`VirtualClock`](crate::VirtualClock)).
///
/// # Errors
///
/// As [`execute_with_quorum`].
///
/// # Panics
///
/// Panics if `quorum` is zero.
pub fn execute_with_quorum_clock(
    strategy: &Strategy,
    providers: &[Arc<dyn Provider>],
    request: &Invocation,
    collector: Option<&Collector>,
    quorum: usize,
    clock: &dyn Clock,
) -> Result<QuorumOutcome, RuntimeError> {
    assert!(quorum >= 1, "quorum must be at least 1");
    engine::execute_scoped(
        strategy,
        providers,
        request,
        collector,
        clock,
        None,
        &Budget::unlimited(),
        CompletionPolicy::Quorum { quorum },
    )
    .map(QuorumOutcome::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{FnProvider, SimulatedProvider};

    fn honest(id: &str, answer: u8, cost: f64) -> Arc<dyn Provider> {
        FnProvider::new(id, "cap", cost, move |_| Ok(vec![answer]))
    }

    fn liar(id: &str, answer: u8) -> Arc<dyn Provider> {
        FnProvider::new(id, "cap", 10.0, move |_| Ok(vec![answer]))
    }

    fn failing(id: &str) -> Arc<dyn Provider> {
        FnProvider::new(id, "cap", 10.0, |_| {
            Err(crate::message::InvokeError::ExecutionFailed {
                reason: "down".to_string(),
            })
        })
    }

    fn req() -> Invocation {
        Invocation::new(1, "cap", vec![])
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn zero_quorum_rejected() {
        let providers = vec![honest("a", 1, 1.0)];
        let _ = execute_with_quorum(&Strategy::parse("a").unwrap(), &providers, &req(), None, 0);
    }

    #[test]
    fn quorum_one_matches_first_success_semantics() {
        let providers = vec![honest("a", 7, 10.0), honest("b", 7, 20.0)];
        let out = execute_with_quorum(
            &Strategy::parse("a-b").unwrap(),
            &providers,
            &req(),
            None,
            1,
        )
        .unwrap();
        assert!(out.agreed);
        assert_eq!(out.payload, Some(vec![7]));
        assert_eq!(out.cost, 10.0, "b never runs at quorum 1");
    }

    #[test]
    fn quorum_two_runs_the_backup_too() {
        let providers = vec![honest("a", 7, 10.0), honest("b", 7, 20.0)];
        let out = execute_with_quorum(
            &Strategy::parse("a-b").unwrap(),
            &providers,
            &req(),
            None,
            2,
        )
        .unwrap();
        assert!(out.agreed);
        assert_eq!(out.votes, 2);
        assert_eq!(out.cost, 30.0, "redundancy costs double");
    }

    #[test]
    fn byzantine_device_is_outvoted() {
        let providers = vec![honest("a", 21, 10.0), liar("b", 99), honest("c", 21, 10.0)];
        let out = execute_with_quorum(
            &Strategy::parse("a-b-c").unwrap(),
            &providers,
            &req(),
            None,
            2,
        )
        .unwrap();
        assert!(out.agreed);
        assert_eq!(out.payload, Some(vec![21]));
        assert_eq!(out.votes, 2);
        assert_eq!(out.votes_cast, 3);
    }

    #[test]
    fn no_quorum_returns_plurality_unagreed() {
        let providers = vec![honest("a", 1, 10.0), liar("b", 2), failing("c")];
        let out = execute_with_quorum(
            &Strategy::parse("a-b-c").unwrap(),
            &providers,
            &req(),
            None,
            2,
        )
        .unwrap();
        assert!(!out.agreed);
        assert_eq!(out.votes, 1);
        assert_eq!(out.votes_cast, 2);
        // Plurality tie broken by first-seen payload.
        assert_eq!(out.payload, Some(vec![1]));
    }

    #[test]
    fn failures_still_gate_nothing_under_quorum_seq() {
        // All fail: no votes, not agreed, everything charged.
        let providers = vec![failing("a"), failing("b")];
        let out = execute_with_quorum(
            &Strategy::parse("a-b").unwrap(),
            &providers,
            &req(),
            None,
            1,
        )
        .unwrap();
        assert!(!out.agreed);
        assert_eq!(out.votes_cast, 0);
        assert!(out.payload.is_none());
        assert_eq!(out.cost, 20.0);
    }

    #[test]
    fn parallel_strategy_reaches_quorum_concurrently() {
        let providers: Vec<Arc<dyn Provider>> = (0..3)
            .map(|i| {
                SimulatedProvider::builder(format!("p{i}"), "cap")
                    .latency(Duration::from_millis(2 + i))
                    .reliability(1.0)
                    .cost(10.0)
                    .response(vec![42])
                    .build() as Arc<dyn Provider>
            })
            .collect();
        let out = execute_with_quorum(
            &Strategy::parse("a*b*c").unwrap(),
            &providers,
            &req(),
            None,
            2,
        )
        .unwrap();
        assert!(out.agreed);
        assert_eq!(out.payload, Some(vec![42]));
        assert!(out.votes >= 2);
        assert_eq!(out.cost, 30.0, "all three start in parallel");
    }

    #[test]
    fn quorum_stops_sequential_tail_once_reached() {
        let providers = vec![
            honest("a", 5, 10.0),
            honest("b", 5, 10.0),
            honest("c", 5, 999.0),
        ];
        let out = execute_with_quorum(
            &Strategy::parse("a-b-c").unwrap(),
            &providers,
            &req(),
            None,
            2,
        )
        .unwrap();
        assert!(out.agreed);
        assert_eq!(out.cost, 20.0, "c never starts once a and b agree");
    }

    #[test]
    fn collector_records_quorum_invocations() {
        let collector = Collector::new(10);
        let providers = vec![honest("a", 5, 10.0), honest("b", 5, 10.0)];
        let _ = execute_with_quorum(
            &Strategy::parse("a-b").unwrap(),
            &providers,
            &req(),
            Some(&collector),
            2,
        )
        .unwrap();
        assert_eq!(collector.observation_count("a"), 1);
        assert_eq!(collector.observation_count("b"), 1);
    }
}
