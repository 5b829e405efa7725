//! # qce-strategy
//!
//! Core algorithms of *"Win with What You Have: QoS-Consistent Edge
//! Services with Unreliable and Dynamic Resources"* (Song & Tilevich,
//! ICDCS 2020): an algebra of **execution strategies** over *equivalent
//! microservices*, plus enumeration, QoS estimation, and QoS-driven
//! strategy generation.
//!
//! Equivalent microservices satisfy the same application requirement by
//! different means (a camera, a smoke sensor, and a flame sensor can all
//! detect fire). An *execution strategy* arranges them with two operators:
//!
//! * `a - b` — **sequential** (fail-over): run `a`; only if it fails, run `b`;
//! * `a * b` — **parallel** (speculative): run both; first success wins.
//!
//! Any mixture is a valid strategy (`c*(a*b-d*e)`, …), and different
//! mixtures deliver very different cost/latency/reliability trade-offs.
//! This crate can:
//!
//! * parse, print, and canonically compare strategies ([`Strategy`]);
//! * enumerate or uniformly sample every distinct strategy over `M`
//!   microservices ([`enumerate`] — Table I of the paper);
//! * estimate the average QoS of a strategy from per-microservice QoS
//!   ([`estimate`] — the paper's Algorithm 1, plus the folding baseline it
//!   is compared against);
//! * rank strategies with the requirement-normalized utility index
//!   ([`UtilityIndex`] — Equation 1) and Pareto filtering ([`pareto`]);
//! * generate the strategy that best fits given QoS requirements
//!   ([`Generator`] — Algorithm 2: exhaustive search below a threshold,
//!   greedy approximation above it);
//! * compose per-stage QoS across multi-stage dataflows ([`compose`]).
//!
//! ## Quick start
//!
//! ```
//! use qce_strategy::{EnvQos, Generator, Requirements, Strategy};
//!
//! // Five equivalent fire-detection microservices with environment-specific
//! // QoS [cost, latency, reliability] (paper Section III.D):
//! let env = EnvQos::from_triples(&[
//!     (50.0, 50.0, 0.6),
//!     (100.0, 100.0, 0.6),
//!     (150.0, 150.0, 0.7),
//!     (200.0, 200.0, 0.7),
//!     (250.0, 250.0, 0.8),
//! ])?;
//!
//! // The service requires: cost ≤ 100, latency ≤ 100 ms, reliability ≥ 97%.
//! let req = Requirements::new(100.0, 100.0, 0.97)?;
//!
//! // Synthesize the best execution strategy for *this* environment.
//! let generated = Generator::default().generate(&env, &env.ids(), &req)?;
//! println!("chosen strategy: {generated}");
//!
//! // Compare against MOLE's predefined patterns.
//! let failover = qce_strategy::estimate::estimate(&Strategy::parse("a-b-c-d-e")?, &env)?;
//! assert!(generated.qos.latency <= failover.latency);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The stochastic simulator that validates these estimates lives in the
//! companion crate `qce-sim`; the threaded gateway runtime (feedback loop,
//! collector, service market) lives in `qce-runtime`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod backend;
mod beam;
pub mod compose;
pub mod enumerate;
pub mod error;
pub mod estimate;
pub mod exec;
pub mod expr;
pub mod generate;
pub mod pareto;
pub mod plan_cache;
pub mod qos;
mod synth;
pub mod utility;

pub use backend::{BackendChoice, DEFAULT_BEAM_WIDTH};
pub use enumerate::StrategyIter;
pub use error::{BuildError, EstimateError, GenerateError, ParseError, QosError};
pub use estimate::{Algorithm1, Estimator, Folding};
pub use exec::{CompletionPolicy, PruneReason};
pub use expr::{Node, Strategy};
pub use generate::{Generated, Generator, GeneratorBuilder, IdSet, Method, SynthesisReport};
pub use plan_cache::{PlanCache, PlanCacheConfig, PlanCacheStats, PlanSource};
pub use qos::{Attribute, EnvQos, MsId, Polarity, Qos, Reliability, Requirements};
pub use utility::UtilityIndex;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Strategy>();
        assert_send_sync::<Node>();
        assert_send_sync::<Qos>();
        assert_send_sync::<EnvQos>();
        assert_send_sync::<Requirements>();
        assert_send_sync::<UtilityIndex>();
        assert_send_sync::<Generator>();
        assert_send_sync::<Generated>();
        assert_send_sync::<GeneratorBuilder>();
        assert_send_sync::<SynthesisReport>();
        assert_send_sync::<StrategyIter>();
        assert_send_sync::<IdSet<'static>>();
        assert_send_sync::<Algorithm1>();
        assert_send_sync::<Folding>();
        assert_send_sync::<BackendChoice>();
    }

    #[test]
    fn crate_level_example_compiles_and_runs() {
        let env =
            EnvQos::from_triples(&[(50.0, 50.0, 0.6), (100.0, 100.0, 0.6), (150.0, 150.0, 0.7)])
                .unwrap();
        let req = Requirements::new(100.0, 100.0, 0.97).unwrap();
        let generated = Generator::default()
            .generate(&env, &env.ids(), &req)
            .unwrap();
        assert_eq!(generated.strategy.len(), 3);
    }
}
