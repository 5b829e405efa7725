//! Event-free virtual-time execution of strategies against stochastic
//! microservice models.
//!
//! The paper validates its QoS estimation by actually executing strategies
//! with `system.sleep`-imitated latencies, using *seconds* as the unit "to
//! filter out the costs of scheduling multi-threaded executions". This
//! module achieves the same isolation more directly: executions happen in
//! **virtual time**, so 300 repetitions of a 750 ms strategy take
//! microseconds and contain zero scheduler noise. The threaded real-time
//! executor lives in the companion crate `qce-runtime`.
//!
//! ## Semantics
//!
//! * A **leaf** invocation starts at its scheduled time, lasts a sampled
//!   latency, and succeeds with the model's reliability.
//! * A **sequential** node runs its children left to right; a child starts
//!   when the previous child has *failed completely* (all of its
//!   microservices failed — the failure time is the makespan of the failed
//!   child's invocations).
//! * A **parallel** node starts all children simultaneously.
//! * The first success anywhere terminates the whole strategy
//!   (short-circuit). Invocations that started strictly before that moment
//!   are charged in full (Assumption 2) and marked *cancelled* if still
//!   running; invocations scheduled at or after it never start and are not
//!   charged. (Ties go to the success: completions are processed before
//!   activations, mirroring the `e ≤ s` gating of the estimator.)
//! * If every microservice fails, the strategy fails at the completion of
//!   the last invocation and every invocation is charged.

use rand::Rng;

use qce_strategy::{EstimateError, MsId, Node, Strategy};

use crate::environment::Environment;
use crate::trace::{ExecutionTrace, MsRecord};

/// Virtual-time strategy executor.
///
/// # Examples
///
/// ```
/// use qce_sim::{Environment, VirtualExecutor};
/// use qce_strategy::Strategy;
/// use rand::SeedableRng;
///
/// // a is useless (never succeeds), b always succeeds after 5 time units.
/// let env = Environment::from_triples(&[(10.0, 2.0, 0.0), (20.0, 5.0, 1.0)])?;
/// let strategy = Strategy::parse("a-b")?;
/// let exec = VirtualExecutor::new();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let trace = exec.execute(&strategy, &env, &mut rng)?;
/// assert!(trace.success);
/// assert_eq!(trace.latency, 7.0); // a fails at 2, b runs 2→7
/// assert_eq!(trace.cost, 30.0);   // both started, both charged
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VirtualExecutor {
    charge_cancelled: bool,
}

impl VirtualExecutor {
    /// Creates an executor with the paper's cost semantics (Assumption 2:
    /// started invocations are charged in full even when cancelled).
    #[must_use]
    pub fn new() -> Self {
        VirtualExecutor {
            charge_cancelled: true,
        }
    }

    /// Ablation variant that does **not** charge invocations cancelled by an
    /// earlier success — i.e. a hypothetical platform with free preemption.
    /// Used by the ablation benchmarks to quantify how much of a parallel
    /// strategy's cost comes from cancelled losers.
    #[must_use]
    pub fn without_cancellation_charges() -> Self {
        VirtualExecutor {
            charge_cancelled: false,
        }
    }

    /// Executes `strategy` once against `env`, drawing all randomness from
    /// `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::MissingMicroservice`] if the strategy
    /// references a microservice absent from `env`.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        strategy: &Strategy,
        env: &Environment,
        rng: &mut R,
    ) -> Result<ExecutionTrace, EstimateError> {
        // Validate up front so the recursion can't fail halfway through.
        for id in strategy.leaves() {
            if env.get(id).is_none() {
                return Err(EstimateError::MissingMicroservice(id));
            }
        }

        let mut schedule = Vec::with_capacity(strategy.len());
        let outcome = walk(strategy.node(), 0.0, env, rng, &mut schedule);

        // Determine when (and whether) the whole strategy finished. The
        // schedule already encodes within-branch gating; the first success
        // cancels everything else.
        let (success, finish) = match outcome {
            WalkOutcome::Success(t) => (true, t),
            WalkOutcome::Failure(_) => {
                let last_end = schedule.iter().map(|s| s.end).fold(0.0f64, f64::max);
                (false, last_end)
            }
        };

        let mut cost = 0.0;
        let records: Vec<MsRecord> = schedule
            .into_iter()
            .map(|s| {
                // Ties (start == finish) go to the success: not started.
                let started = !success || s.start < finish;
                let cancelled = started && success && s.end > finish;
                let charged = started && (self.charge_cancelled || !cancelled);
                if charged {
                    cost += env.get(s.ms).expect("validated above").cost;
                }
                MsRecord {
                    ms: s.ms,
                    start: s.start,
                    end: s.end,
                    started,
                    succeeded: started && s.succeeded && s.end <= finish,
                    cancelled,
                }
            })
            .collect();

        Ok(ExecutionTrace {
            success,
            latency: finish,
            cost,
            records,
        })
    }
}

/// One scheduled invocation with its sampled outcome.
struct Scheduled {
    ms: MsId,
    start: f64,
    end: f64,
    succeeded: bool,
}

enum WalkOutcome {
    /// The subtree produced a success at this virtual time.
    Success(f64),
    /// Every microservice in the subtree failed; the last one finished at
    /// this virtual time.
    Failure(f64),
}

/// Schedules `node` starting at `t0`, appending invocations (with sampled
/// outcomes) to `schedule` and reporting the subtree's outcome.
fn walk<R: Rng + ?Sized>(
    node: &Node,
    t0: f64,
    env: &Environment,
    rng: &mut R,
    schedule: &mut Vec<Scheduled>,
) -> WalkOutcome {
    match node {
        Node::Leaf(id) => {
            let model = env.get(*id).expect("caller validated availability");
            let (succeeded, latency) = model.sample_invocation(rng);
            let end = t0 + latency;
            schedule.push(Scheduled {
                ms: *id,
                start: t0,
                end,
                succeeded,
            });
            if succeeded {
                WalkOutcome::Success(end)
            } else {
                WalkOutcome::Failure(end)
            }
        }
        Node::Seq(children) => {
            let mut cursor = t0;
            for child in children {
                match walk(child, cursor, env, rng, schedule) {
                    WalkOutcome::Success(t) => return WalkOutcome::Success(t),
                    WalkOutcome::Failure(t) => cursor = t,
                }
            }
            WalkOutcome::Failure(cursor)
        }
        Node::Par(children) => {
            let mut first_success: Option<f64> = None;
            let mut last_failure = t0;
            for child in children {
                match walk(child, t0, env, rng, schedule) {
                    WalkOutcome::Success(t) => {
                        first_success = Some(match first_success {
                            Some(prev) => prev.min(t),
                            None => t,
                        });
                    }
                    WalkOutcome::Failure(t) => last_failure = last_failure.max(t),
                }
            }
            match first_success {
                Some(t) => WalkOutcome::Success(t),
                None => WalkOutcome::Failure(last_failure),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Environment where reliability is 0 or 1 so outcomes are
    /// deterministic regardless of the RNG.
    fn det_env(spec: &[(f64, f64, bool)]) -> Environment {
        Environment::from_triples(
            &spec
                .iter()
                .map(|&(c, l, ok)| (c, l, if ok { 1.0 } else { 0.0 }))
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn single_success() {
        let env = det_env(&[(10.0, 5.0, true)]);
        let s = Strategy::parse("a").unwrap();
        let t = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        assert!(t.success);
        assert_eq!(t.latency, 5.0);
        assert_eq!(t.cost, 10.0);
        assert_eq!(t.winner(), Some(MsId(0)));
    }

    #[test]
    fn single_failure() {
        let env = det_env(&[(10.0, 5.0, false)]);
        let s = Strategy::parse("a").unwrap();
        let t = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        assert!(!t.success);
        assert_eq!(t.latency, 5.0);
        assert_eq!(t.cost, 10.0);
    }

    #[test]
    fn failover_skips_tail_after_success() {
        let env = det_env(&[(10.0, 5.0, true), (20.0, 5.0, true)]);
        let s = Strategy::parse("a-b").unwrap();
        let t = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        assert!(t.success);
        assert_eq!(t.latency, 5.0);
        assert_eq!(t.cost, 10.0, "b never starts");
        // b was never even scheduled: its own sequence short-circuited.
        assert_eq!(t.records.len(), 1);
        assert_eq!(t.records[0].ms, MsId(0));
    }

    #[test]
    fn failover_falls_through_on_failure() {
        let env = det_env(&[(10.0, 2.0, false), (20.0, 5.0, true)]);
        let s = Strategy::parse("a-b").unwrap();
        let t = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        assert!(t.success);
        assert_eq!(t.latency, 7.0);
        assert_eq!(t.cost, 30.0);
        assert_eq!(t.winner(), Some(MsId(1)));
    }

    #[test]
    fn parallel_first_success_wins_and_cancels() {
        // b succeeds at 5; c would succeed at 50 → cancelled but charged.
        let env = det_env(&[(10.0, 100.0, false), (20.0, 5.0, true), (30.0, 50.0, true)]);
        let s = Strategy::parse("a*b*c").unwrap();
        let t = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        assert!(t.success);
        assert_eq!(t.latency, 5.0);
        assert_eq!(t.cost, 60.0, "all three started at t=0");
        let a = &t.records[0];
        assert!(a.started && a.cancelled && !a.succeeded);
        let c = t.records.iter().find(|r| r.ms == MsId(2)).unwrap();
        assert!(c.cancelled, "still running when b won");
        assert_eq!(t.winner(), Some(MsId(1)));
    }

    #[test]
    fn parallel_all_fail_waits_for_slowest() {
        let env = det_env(&[(10.0, 3.0, false), (20.0, 9.0, false)]);
        let s = Strategy::parse("a*b").unwrap();
        let t = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        assert!(!t.success);
        assert_eq!(t.latency, 9.0);
        assert_eq!(t.cost, 30.0);
    }

    #[test]
    fn sequential_inside_parallel_is_gated_locally() {
        // (a-b)*c: a fails at 2 → b runs 2..12; c succeeds at 4 → b is
        // charged (started at 2 < 4) and cancelled.
        let env = det_env(&[(10.0, 2.0, false), (20.0, 10.0, true), (30.0, 4.0, true)]);
        let s = Strategy::parse("(a-b)*c").unwrap();
        let t = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        assert!(t.success);
        assert_eq!(t.latency, 4.0);
        assert_eq!(t.cost, 60.0);
        let b = t.records.iter().find(|r| r.ms == MsId(1)).unwrap();
        assert!(b.started && b.cancelled);
    }

    #[test]
    fn tail_scheduled_after_win_never_starts() {
        // (a-b)*c: a fails at 6, so b would start at 6; c succeeds at 4 < 6
        // → b never starts and is not charged.
        let env = det_env(&[(10.0, 6.0, false), (20.0, 10.0, true), (30.0, 4.0, true)]);
        let s = Strategy::parse("(a-b)*c").unwrap();
        let t = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        assert_eq!(t.latency, 4.0);
        assert_eq!(t.cost, 40.0, "only a and c are charged");
        let b = t.records.iter().find(|r| r.ms == MsId(1)).unwrap();
        assert!(!b.started);
    }

    #[test]
    fn tie_goes_to_the_success() {
        // a fails exactly when c succeeds (t=4): b scheduled at 4 must NOT
        // start (completions processed before activations).
        let env = det_env(&[(10.0, 4.0, false), (20.0, 10.0, true), (30.0, 4.0, true)]);
        let s = Strategy::parse("(a-b)*c").unwrap();
        let t = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        assert_eq!(t.latency, 4.0);
        assert_eq!(t.cost, 40.0);
        assert!(!t.records.iter().find(|r| r.ms == MsId(1)).unwrap().started);
    }

    #[test]
    fn nested_sequential_failure_times_chain() {
        // a fails at 2, b fails at 2+3=5, c runs 5..6.
        let env = det_env(&[(1.0, 2.0, false), (1.0, 3.0, false), (1.0, 1.0, true)]);
        let s = Strategy::parse("a-b-c").unwrap();
        let t = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        assert_eq!(t.latency, 6.0);
        let c = &t.records[2];
        assert_eq!(c.start, 5.0);
        assert_eq!(c.end, 6.0);
    }

    #[test]
    fn seq_after_parallel_waits_for_parallel_makespan() {
        // a*b both fail (at 3 and 8) → c starts at 8.
        let env = det_env(&[(1.0, 3.0, false), (1.0, 8.0, false), (1.0, 1.0, true)]);
        let s = Strategy::parse("a*b-c").unwrap();
        let t = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        let c = t.records.iter().find(|r| r.ms == MsId(2)).unwrap();
        assert_eq!(c.start, 8.0);
        assert_eq!(t.latency, 9.0);
    }

    #[test]
    fn without_cancellation_charges_skips_losers() {
        let env = det_env(&[(10.0, 100.0, true), (20.0, 5.0, true)]);
        let s = Strategy::parse("a*b").unwrap();
        let charged = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        assert_eq!(charged.cost, 30.0);
        let free = VirtualExecutor::without_cancellation_charges()
            .execute(&s, &env, &mut rng(1))
            .unwrap();
        assert_eq!(free.cost, 20.0, "cancelled a is not charged");
    }

    #[test]
    fn missing_microservice_is_an_error() {
        let env = det_env(&[(1.0, 1.0, true)]);
        let s = Strategy::parse("a*b").unwrap();
        assert_eq!(
            VirtualExecutor::new()
                .execute(&s, &env, &mut rng(1))
                .unwrap_err(),
            EstimateError::MissingMicroservice(MsId(1))
        );
    }

    #[test]
    fn stochastic_success_rate_matches_reliability() {
        // a-b with r = 0.5 each → overall reliability 0.75.
        let env = Environment::from_triples(&[(1.0, 1.0, 0.5), (1.0, 1.0, 0.5)]).unwrap();
        let s = Strategy::parse("a-b").unwrap();
        let exec = VirtualExecutor::new();
        let mut r = rng(12);
        let n = 20_000;
        let ok = (0..n)
            .filter(|_| exec.execute(&s, &env, &mut r).unwrap().success)
            .count();
        let rate = ok as f64 / f64::from(n);
        assert!((rate - 0.75).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn records_cover_every_leaf_when_all_fail() {
        // With zero reliability, nothing short-circuits: every microservice
        // is scheduled exactly once.
        let env = det_env(&[
            (1.0, 1.0, false),
            (1.0, 2.0, false),
            (1.0, 3.0, false),
            (1.0, 4.0, false),
            (1.0, 5.0, false),
        ]);
        let s = Strategy::parse("c*(a*b-d*e)").unwrap();
        let t = VirtualExecutor::new()
            .execute(&s, &env, &mut rng(3))
            .unwrap();
        let mut ids: Vec<usize> = t.records.iter().map(|r| r.ms.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.cost, 5.0, "everything is charged on total failure");
        assert!(!t.success);
    }

    #[test]
    fn records_never_duplicate_a_leaf() {
        let env = Environment::from_triples(&[
            (1.0, 1.0, 0.5),
            (1.0, 2.0, 0.5),
            (1.0, 3.0, 0.5),
            (1.0, 4.0, 0.5),
            (1.0, 5.0, 0.5),
        ])
        .unwrap();
        let s = Strategy::parse("c*(a*b-d*e)").unwrap();
        let exec = VirtualExecutor::new();
        let mut r = rng(3);
        for _ in 0..200 {
            let t = exec.execute(&s, &env, &mut r).unwrap();
            let mut ids: Vec<usize> = t.records.iter().map(|rec| rec.ms.index()).collect();
            ids.sort_unstable();
            let mut dedup = ids.clone();
            dedup.dedup();
            assert_eq!(ids, dedup, "no microservice scheduled twice");
            assert!(!ids.is_empty());
        }
    }
}
