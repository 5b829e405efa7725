//! # qce — QoS-consistent edge services with unreliable and dynamic resources
//!
//! Façade crate for the reproduction of *"Win with What You Have:
//! QoS-Consistent Edge Services with Unreliable and Dynamic Resources"*
//! (Song & Tilevich, ICDCS 2020). It re-exports the three library crates
//! of the workspace:
//!
//! * [`strategy`] (`qce-strategy`) — the paper's core contribution: the
//!   execution-strategy algebra over equivalent microservices, strategy
//!   enumeration, the Algorithm 1 QoS estimator, the utility index, and
//!   the Algorithm 2 generator;
//! * [`sim`] (`qce-sim`) — the stochastic edge-environment simulator and
//!   virtual-time executor behind the paper's simulation experiments;
//! * [`runtime`] (`qce-runtime`) — the MOLE-extended edge gateway: service
//!   scripts, cloud market, device registry, threaded strategy executor,
//!   QoS collector, and the per-time-slot feedback loop.
//!
//! Depend on the individual crates for finer-grained builds, or on this
//! crate for everything at once. The workspace also ships a `qce` binary
//! (this crate's `src/bin/qce.rs`) for command-line experimentation and a
//! `repro` binary (`qce-bench`) that regenerates every table and figure of
//! the paper's evaluation.
//!
//! ## End-to-end example
//!
//! ```
//! use qce::strategy::{EnvQos, Generator, Requirements};
//! use qce::sim::{simulate, Environment};
//! use rand::SeedableRng;
//!
//! // Synthesize the best strategy for three equivalent microservices…
//! let env = EnvQos::from_triples(&[
//!     (50.0, 50.0, 0.6),
//!     (100.0, 100.0, 0.6),
//!     (150.0, 150.0, 0.7),
//! ])?;
//! let req = Requirements::new(100.0, 100.0, 0.97)?;
//! let generated = Generator::default().generate(&env, &env.ids(), &req)?;
//!
//! // …and confirm its estimated QoS by simulation.
//! let sim_env = Environment::from_triples(&[
//!     (50.0, 50.0, 0.6),
//!     (100.0, 100.0, 0.6),
//!     (150.0, 150.0, 0.7),
//! ])?;
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let runs = std::num::NonZeroU32::new(20_000).unwrap();
//! let measured = simulate(&generated.strategy, &sim_env, runs, &mut rng)?;
//! assert!((measured.mean_cost - generated.qos.cost).abs() / generated.qos.cost < 0.05);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use qce_runtime as runtime;
pub use qce_sim as sim;
pub use qce_strategy as strategy;

/// Compiles the README's code blocks as doctests, so the examples shown
/// there (including the `Harness` walkthrough under "Testing") can never
/// drift from the actual API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
