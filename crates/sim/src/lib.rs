//! # qce-sim
//!
//! Stochastic edge-environment simulator for the QoS-consistent edge
//! services system (Song & Tilevich, ICDCS 2020). This crate is the
//! substrate behind the paper's simulation experiments (Section V.A):
//!
//! * [`MsModel`] / [`LatencyDistribution`] — per-microservice stochastic
//!   behaviour (success probability, latency distribution, cost);
//! * [`Environment`] — a set of equivalent microservices, with the random
//!   generators of Table III ([`RandomEnvConfig`], [`table3_configurations`]);
//! * [`Device`] / [`Availability`] — mobile and energy-harvesting resource
//!   providers whose dynamics make microservices unreliable in the first
//!   place;
//! * [`VirtualExecutor`] — executes a strategy in *virtual time* with exact
//!   short-circuit and cost semantics (Assumption 2), replacing the paper's
//!   `system.sleep` testbed with a noise-free equivalent. It is the
//!   Monte-Carlo reference for Algorithm 1: a pure function of the tree
//!   and the sampled outcomes — no clock, no threads, first-success only
//!   (quorum execution, QoS drift and failure storms live in
//!   `qce-runtime`, on the walker that serves requests);
//! * [`simulate`] — Monte-Carlo aggregation used to validate Algorithm 1's
//!   estimates (Section V.A.2: errors below 1%);
//! * [`SharedHost`] — correlated (shared-fate) failures for microservices
//!   co-located on one device, quantifying when Algorithm 1's independence
//!   assumption breaks.
//!
//! ## Quick start
//!
//! ```
//! use qce_sim::{simulate, Environment};
//! use qce_strategy::{estimate::estimate, Strategy};
//! use rand::SeedableRng;
//!
//! let env = Environment::from_triples(&[
//!     (50.0, 50.0, 0.6),
//!     (100.0, 100.0, 0.6),
//!     (150.0, 150.0, 0.7),
//! ])?;
//! let strategy = Strategy::parse("a-b*c")?;
//!
//! // Analytic estimate (Algorithm 1) …
//! let estimated = estimate(&strategy, &env.mean_qos_table())?;
//! // … validated by 10 000 virtual-time executions.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let runs = std::num::NonZeroU32::new(10_000).unwrap();
//! let measured = simulate(&strategy, &env, runs, &mut rng)?;
//! assert!((measured.mean_latency - estimated.latency).abs() / estimated.latency < 0.05);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod correlation;
pub mod device;
pub mod environment;
pub mod exec;
pub mod microservice;
pub mod montecarlo;
pub mod trace;

pub use correlation::{execute_with_shared_fate, preserve_marginals, SharedHost};
pub use device::{environment_from_placements, Availability, Device, DeviceKind};
pub use environment::{table3_configurations, Environment, EnvironmentError, RandomEnvConfig};
pub use exec::VirtualExecutor;
pub use microservice::{LatencyDistribution, MsModel};
pub use montecarlo::{relative_error_pct, simulate, simulate_with, McStats};
pub use trace::{ExecutionTrace, MsRecord};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Environment>();
        assert_send_sync::<MsModel>();
        assert_send_sync::<VirtualExecutor>();
        assert_send_sync::<ExecutionTrace>();
        assert_send_sync::<Device>();
    }
}
