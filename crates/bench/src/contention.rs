//! Scarce-resource contention experiment — the paper's Section VII
//! scalability discussion: "edge systems could invoke equivalent
//! microservices to process multiple concurrent service requests that rely
//! on the same execution resources but are bound by their scarcity."
//!
//! Three equivalent providers with a concurrency capacity of **one** each
//! serve several concurrent clients. Under speculative parallelism every
//! request grabs *all* free slots, starving the other clients; under
//! fail-over each request occupies one slot and overloaded devices reject
//! instantly, so requests spread across the equivalent providers — the
//! strategy doubles as a load balancer.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use qce_runtime::engine::{execute_scoped, Budget, CompletionPolicy};
use qce_runtime::{Invocation, Provider, SimulatedProvider, WallClock};
use qce_strategy::Strategy;

use crate::report::{fmt_f, fmt_pct, Report};

/// Outcome of one contention scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionResult {
    /// Fraction of client requests that succeeded.
    pub success_rate: f64,
    /// Mean charged cost per request (attempted invocations included).
    pub mean_cost: f64,
    /// Mean request latency.
    pub mean_latency: Duration,
}

/// Runs `clients` concurrent clients, each issuing `requests` back-to-back
/// requests with the given strategy, against 3 equivalent providers of
/// capacity 1.
///
/// # Panics
///
/// Panics if the strategy references more than 3 microservices.
#[must_use]
pub fn run_scenario(strategy: &Strategy, clients: usize, requests: u32) -> ContentionResult {
    let providers: Vec<Arc<dyn Provider>> = (0..3)
        .map(|i| {
            SimulatedProvider::builder(format!("scarce-{i}"), format!("cap-{i}"))
                .cost(50.0)
                .latency(Duration::from_millis(5))
                .reliability(1.0)
                .capacity(1)
                .seed(i)
                .build() as Arc<dyn Provider>
        })
        .collect();

    let results: Vec<(bool, f64, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let providers = providers.clone();
                let strategy = strategy.clone();
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(requests as usize);
                    for r in 0..requests {
                        let request =
                            Invocation::new(u64::from(r) * 100 + client as u64, "", vec![]);
                        let outcome = execute_scoped(
                            &strategy,
                            &providers,
                            &request,
                            None,
                            &WallClock::new(),
                            None,
                            &Budget::unlimited(),
                            CompletionPolicy::FirstSuccess,
                        )
                        .expect("providers resolved");
                        out.push((
                            outcome.completion.is_success(),
                            outcome.cost,
                            outcome.latency,
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });

    let n = results.len() as f64;
    ContentionResult {
        success_rate: results.iter().filter(|(ok, _, _)| *ok).count() as f64 / n,
        mean_cost: results.iter().map(|(_, c, _)| c).sum::<f64>() / n,
        mean_latency: results
            .iter()
            .map(|(_, _, l)| *l)
            .sum::<Duration>()
            .div_f64(n),
    }
}

/// Runs the contention comparison and writes `contention.tsv`.
///
/// # Errors
///
/// Returns an I/O error if the report cannot be written.
///
/// # Panics
///
/// Panics only if the hard-coded strategies fail to parse (they cannot).
pub fn run(reports: &Path, clients: usize, requests: u32) -> std::io::Result<()> {
    let mut report = Report::new(
        format!(
            "Contention (§VII): {clients} concurrent clients, 3 equivalent \
             providers of capacity 1"
        ),
        &["strategy", "success rate", "mean cost", "mean latency"],
    );
    for (name, text) in [
        ("speculative parallel", "a*b*c"),
        ("fail-over", "a-b-c"),
        ("hedged (a-b*c)", "a-b*c"),
    ] {
        let strategy = Strategy::parse(text).expect("valid expression");
        let result = run_scenario(&strategy, clients, requests);
        report.row([
            name.to_string(),
            fmt_pct(result.success_rate),
            fmt_f(result.mean_cost, 1),
            format!("{:.1?}", result.mean_latency),
        ]);
    }
    report.note("parallel grabs every free slot per request and starves other clients;");
    report.note("fail-over spreads requests across equivalents (overload rejections are");
    report.note("instant), acting as a load balancer — the paper's future-work scenario");
    report.emit(reports, "contention")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_beats_parallel_under_contention() {
        let parallel = run_scenario(&Strategy::parse("a*b*c").unwrap(), 3, 15);
        let failover = run_scenario(&Strategy::parse("a-b-c").unwrap(), 3, 15);
        assert!(
            failover.success_rate > parallel.success_rate,
            "failover {} vs parallel {}",
            failover.success_rate,
            parallel.success_rate
        );
    }

    #[test]
    fn single_client_succeeds_with_any_strategy() {
        for text in ["a*b*c", "a-b-c"] {
            let result = run_scenario(&Strategy::parse(text).unwrap(), 1, 5);
            assert_eq!(result.success_rate, 1.0, "{text}");
        }
    }

    #[test]
    fn failover_is_near_perfect_with_three_clients() {
        // 3 clients, 3 slots: fail-over should serve almost everyone.
        let result = run_scenario(&Strategy::parse("a-b-c").unwrap(), 3, 20);
        assert!(
            result.success_rate > 0.9,
            "3 clients on 3 slots: {}",
            result.success_rate
        );
    }

    #[test]
    fn run_writes_report() {
        let dir = std::env::temp_dir().join(format!("qce-cont-{}", std::process::id()));
        run(&dir, 2, 5).unwrap();
        assert!(dir.join("contention.tsv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
