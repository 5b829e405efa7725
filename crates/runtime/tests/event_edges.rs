//! Edge-of-the-clock regressions for the event core's saturating deadline
//! arithmetic (`engine/event.rs`).
//!
//! A timed leaf's timer deadline is `t0.saturating_add(latency)`. Near
//! `Duration::MAX` that clamp is lossy: two legs with *different* declared
//! latencies can saturate to the *same* deadline, and reconstructing a
//! leg's latency as `now - t0` after the clamp silently under-reports it
//! by `t0`. The core therefore carries the declared latency on the timer
//! event and reports it verbatim; the subtraction is only the fallback for
//! blocking legs, whose elapsed time is genuinely `now - t0`. These tests
//! pin that behaviour at the extremes — `Duration::MAX`, zero latency —
//! and check that clamped ties resolve in a deterministic, replayable
//! order (timer sequence number, i.e. start order).

use std::sync::Arc;
use std::time::Duration;

use qce_runtime::engine::{execute_scoped, Budget, Completion, CompletionPolicy};
use qce_runtime::{Clock, Invocation, InvokeError, Provider, VirtualClock};
use qce_strategy::Strategy;

/// A provider that always takes the timed path, declaring exactly the
/// configured latency and outcome.
struct TimedLeaf {
    id: String,
    latency: Duration,
    ok: bool,
}

impl TimedLeaf {
    fn arc(id: &str, latency: Duration, ok: bool) -> Arc<dyn Provider> {
        Arc::new(TimedLeaf {
            id: id.to_string(),
            latency,
            ok,
        })
    }

    fn sample(&self) -> Result<Vec<u8>, InvokeError> {
        if self.ok {
            Ok(self.id.as_bytes().to_vec())
        } else {
            Err(InvokeError::ExecutionFailed {
                reason: "scripted failure".to_string(),
            })
        }
    }
}

impl Provider for TimedLeaf {
    fn id(&self) -> &str {
        &self.id
    }

    fn capability(&self) -> &str {
        "edge-cap"
    }

    fn cost(&self) -> f64 {
        10.0
    }

    fn invoke(&self, _request: &Invocation) -> Result<Vec<u8>, InvokeError> {
        self.sample()
    }

    fn try_timed_invoke(
        &self,
        _request: &Invocation,
        _clock: &dyn Clock,
    ) -> Option<(Duration, Result<Vec<u8>, InvokeError>)> {
        Some((self.latency, self.sample()))
    }
}

fn run(
    strategy: &str,
    t0: Duration,
    providers: Vec<Arc<dyn Provider>>,
) -> qce_runtime::engine::EngineOutcome {
    let clock = VirtualClock::new();
    clock.advance(t0);
    execute_scoped(
        &Strategy::parse(strategy).unwrap(),
        &providers,
        &Invocation::new(7, "edge-cap", vec![]),
        None,
        &clock,
        None,
        &Budget::unlimited(),
        CompletionPolicy::FirstSuccess,
    )
    .unwrap()
}

/// A leg declaring `Duration::MAX` from a non-zero start instant must
/// report `Duration::MAX` — not `MAX - t0`, which is what the clamped
/// deadline minus `t0` would reconstruct.
#[test]
fn max_latency_leaf_reports_declared_latency_not_deadline_minus_t0() {
    let t0 = Duration::from_millis(2);
    let outcome = run("a", t0, vec![TimedLeaf::arc("huge", Duration::MAX, true)]);
    match outcome.completion {
        Completion::First { success, .. } => assert!(success),
        Completion::Agreement { .. } => panic!("first-success run returned agreement"),
    }
    assert_eq!(outcome.invocations.len(), 1);
    assert_eq!(outcome.invocations[0].latency, Duration::MAX);
    // The *request* latency is genuinely elapsed time, so the clamp is
    // honest there: the run started at t0 and ended at the saturated
    // deadline.
    assert_eq!(outcome.latency, Duration::MAX - t0);
}

/// A zero-latency leg fires its timer at `now` without advancing the
/// clock and reports exactly zero.
#[test]
fn zero_latency_leaf_completes_instantly_with_zero_latency() {
    let t0 = Duration::from_millis(5);
    let outcome = run(
        "a",
        t0,
        vec![TimedLeaf::arc("instant", Duration::ZERO, true)],
    );
    match outcome.completion {
        Completion::First { success, .. } => assert!(success),
        Completion::Agreement { .. } => panic!("first-success run returned agreement"),
    }
    assert_eq!(outcome.invocations[0].latency, Duration::ZERO);
    assert_eq!(outcome.latency, Duration::ZERO);
}

/// Two legs whose deadlines both clamp to `Duration::MAX` share one timer
/// run, which pops them in start order, and the
/// *declared* latencies — which still differ — survive the clamp. Run the
/// rig twice: byte-identical replay.
#[test]
fn clamped_deadline_ties_resolve_in_start_order_and_keep_declared_latencies() {
    let t0 = Duration::from_millis(2);
    let rig = || {
        run(
            "a*b*c",
            t0,
            vec![
                TimedLeaf::arc("slow-a", Duration::MAX, false),
                TimedLeaf::arc("slow-b", Duration::MAX - Duration::from_millis(1), false),
                TimedLeaf::arc("quick-c", Duration::from_millis(1), false),
            ],
        )
    };
    let outcome = rig();
    match outcome.completion {
        Completion::First { success, .. } => assert!(!success),
        Completion::Agreement { .. } => panic!("first-success run returned agreement"),
    }
    // Completion order: the quick leg at t0 + 1ms, then the two clamped
    // legs at Duration::MAX in start (sequence) order.
    let order: Vec<&str> = outcome
        .invocations
        .iter()
        .map(|i| i.provider_id.as_str())
        .collect();
    assert_eq!(order, ["quick-c", "slow-a", "slow-b"]);
    // Declared latencies survive even though both deadlines clamped to
    // the same instant.
    assert_eq!(outcome.invocations[0].latency, Duration::from_millis(1));
    assert_eq!(outcome.invocations[1].latency, Duration::MAX);
    assert_eq!(
        outcome.invocations[2].latency,
        Duration::MAX - Duration::from_millis(1)
    );

    // Replay determinism at the clamp: a second run reproduces the same
    // trace exactly.
    let replay = rig();
    assert_eq!(replay.invocations, outcome.invocations);
    assert_eq!(replay.latency, outcome.latency);
}
