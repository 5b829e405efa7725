//! Quorum execution over equivalent microservices — the paper's §VII
//! future-work scenario: "protect from malicious devices that return fake
//! results."
//!
//! Four devices claim to report the ambient temperature by different means;
//! one of them is compromised and always reports a fire-free 21 °C
//! regardless of reality. First-success execution believes whichever device
//! answers first; quorum-2 execution cross-checks equivalent microservices
//! and outvotes the liar — at roughly double the cost (Assumption 2 still
//! charges every started invocation).
//!
//! Run with: `cargo run --example byzantine_quorum`

use std::sync::Arc;
use std::time::Duration;

use qce_runtime::engine::{execute_scoped, Budget, Completion, CompletionPolicy};
use qce_runtime::{FnProvider, Invocation, InvokeError, Provider, WallClock};
use qce_strategy::Strategy;

/// The ground truth the honest sensors observe.
const TRUE_TEMPERATURE: u8 = 58; // someone should check on the server room

fn honest(id: &str, latency: Duration, cost: f64) -> Arc<dyn Provider> {
    FnProvider::new(id, "read-temp", cost, move |_req| {
        std::thread::sleep(latency);
        Ok(vec![TRUE_TEMPERATURE])
    })
}

fn compromised(id: &str, latency: Duration, cost: f64) -> Arc<dyn Provider> {
    FnProvider::new(id, "read-temp", cost, move |_req| {
        std::thread::sleep(latency);
        Ok(vec![21]) // "all is well"
    })
}

fn flaky(id: &str, cost: f64) -> Arc<dyn Provider> {
    FnProvider::new(id, "read-temp", cost, move |_req| {
        Err(InvokeError::ExecutionFailed {
            reason: "sensor open-circuit".to_string(),
        })
    })
}

/// The bytes an execution answered with (none if nothing succeeded).
fn answer(completion: &Completion) -> &[u8] {
    completion.payload().map_or(&[], Vec::as_slice)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // a: compromised but FAST (it wants to answer first);
    // b, c: honest; d: broken.
    let providers: Vec<Arc<dyn Provider>> = vec![
        compromised("rogue-node/read-temp", Duration::from_millis(1), 10.0),
        honest("pi/ds1820", Duration::from_millis(5), 10.0),
        honest("desktop/cpu-estimate", Duration::from_millis(8), 15.0),
        flaky("window-unit/ir", 5.0),
    ];
    let strategy = Strategy::parse("a*b-c-d")?;
    let request = Invocation::new(1, "read-temp", vec![]);
    // One door for both semantics: no collector, no telemetry, no budget.
    let execute = |policy| {
        execute_scoped(
            &strategy,
            &providers,
            &request,
            None,
            &WallClock::new(),
            None,
            &Budget::unlimited(),
            policy,
        )
    };

    println!("ground truth: {TRUE_TEMPERATURE} degrees (fire!)\n");

    // First-success semantics: the fast liar wins the race.
    let naive = execute(CompletionPolicy::FirstSuccess)?;
    println!(
        "first-success: answered {:?} at cost {:.0} — {}",
        answer(&naive.completion),
        naive.cost,
        if answer(&naive.completion) == [TRUE_TEMPERATURE] {
            "correct"
        } else {
            "FOOLED by the rogue device"
        }
    );

    // Quorum-2: equivalent microservices must agree.
    let quorum = execute(CompletionPolicy::Quorum { quorum: 2 })?;
    let Completion::Agreement {
        votes, votes_cast, ..
    } = quorum.completion
    else {
        return Err("a quorum policy completes by agreement".into());
    };
    println!(
        "quorum-2     : answered {:?} with {}/{} votes at cost {:.0} — {}",
        answer(&quorum.completion),
        votes,
        votes_cast,
        quorum.cost,
        if answer(&quorum.completion) == [TRUE_TEMPERATURE] {
            "correct (liar outvoted)"
        } else {
            "fooled"
        }
    );
    assert!(quorum.completion.is_success());
    assert_eq!(answer(&quorum.completion), [TRUE_TEMPERATURE]);

    println!(
        "\nredundancy premium: quorum cost {:.0} vs first-success {:.0} \
         (Assumption 2 charges every started invocation)",
        quorum.cost, naive.cost
    );
    Ok(())
}
