//! Interactive strategy-space explorer: enumerate every execution strategy
//! for a set of equivalent microservices, estimate their QoS, and print the
//! Pareto front and the utility ranking.
//!
//! Usage:
//!
//! ```text
//! cargo run --example strategy_explorer -- [cost,latency,reliability ...]
//! ```
//!
//! Each positional argument describes one microservice as a comma-separated
//! triple (reliability in percent). With no arguments, the paper's
//! Section III.D fire-detection environment is used. Example:
//!
//! ```text
//! cargo run --example strategy_explorer -- 50,50,60 100,100,60 150,150,70
//! ```

use qce_strategy::enumerate::paper;
use qce_strategy::estimate::estimate;
use qce_strategy::pareto::pareto_front;
use qce_strategy::{EnvQos, IdSet, Requirements, StrategyIter, UtilityIndex};

fn parse_args() -> Result<EnvQos, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Ok(EnvQos::from_triples(&[
            (50.0, 50.0, 0.6),
            (100.0, 100.0, 0.6),
            (150.0, 150.0, 0.7),
            (200.0, 200.0, 0.7),
            (250.0, 250.0, 0.8),
        ])?);
    }
    let mut triples = Vec::new();
    for arg in &args {
        let parts: Vec<&str> = arg.split(',').collect();
        if parts.len() != 3 {
            return Err(format!("expected cost,latency,reliability%, got {arg:?}").into());
        }
        let cost: f64 = parts[0].trim().parse()?;
        let latency: f64 = parts[1].trim().parse()?;
        let reliability_pct: f64 = parts[2].trim().parse()?;
        triples.push((cost, latency, reliability_pct / 100.0));
    }
    Ok(EnvQos::from_triples(&triples)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = parse_args()?;
    let m = env.len();
    if m > 6 {
        return Err("explorer enumerates exhaustively; use at most 6 microservices".into());
    }

    println!("Environment ({m} equivalent microservices):");
    for (id, qos) in env.iter() {
        println!("  {id}: {qos}");
    }

    let ids = env.ids();
    let space = StrategyIter::over(IdSet::new(&ids)?)?;
    let table1 = paper::count_table1(m).ok_or("Table I counts stop at 20 microservices")?;
    println!(
        "\nStrategy space: {} semantically distinct strategies \
         (the paper's Table I counts {table1}).",
        space.remaining()
    );

    // Estimate everything.
    let mut scored: Vec<(qce_strategy::Strategy, qce_strategy::Qos)> = space
        .map(|s| {
            let qos = estimate(&s, &env).expect("environment covers all ids");
            (s, qos)
        })
        .collect();

    // Pareto front.
    let front = pareto_front(scored.clone(), |(_, q)| *q);
    println!(
        "\nPareto-optimal strategies ({} of {}):",
        front.len(),
        scored.len()
    );
    let mut front_sorted = front;
    front_sorted.sort_by(|(_, a), (_, b)| a.cost.partial_cmp(&b.cost).expect("finite"));
    for (s, q) in front_sorted.iter().take(15) {
        println!("  {s:<20} {q}");
    }
    if front_sorted.len() > 15 {
        println!("  … and {} more", front_sorted.len() - 15);
    }

    // Utility ranking against the paper's simulation requirements.
    let requirements = Requirements::new(100.0, 100.0, 0.97)?;
    let utility = UtilityIndex::default();
    scored.sort_by(|(_, a), (_, b)| {
        utility
            .utility(b, &requirements)
            .partial_cmp(&utility.utility(a, &requirements))
            .expect("utilities are finite")
    });
    println!("\nTop 10 by utility against {requirements}:");
    for (rank, (s, q)) in scored.iter().take(10).enumerate() {
        println!(
            "  #{:<2} U={:+.3}  {s:<20} {q}",
            rank + 1,
            utility.utility(q, &requirements)
        );
    }

    let satisfied = scored
        .iter()
        .filter(|(_, q)| requirements.satisfied_by(q))
        .count();
    println!(
        "\n{satisfied} of {} strategies satisfy every requirement.",
        scored.len()
    );
    Ok(())
}
