//! # qce-bench
//!
//! Reproduction harness for every table and figure in the evaluation of
//! *"Win with What You Have: QoS-Consistent Edge Services with Unreliable
//! and Dynamic Resources"* (ICDCS 2020).
//!
//! Each module regenerates one artifact; the `repro` binary drives them:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`] | Table I — strategy counts for M equivalent microservices |
//! | [`table2`] | Table II — example strategies and estimated QoS (+ §III.C.3) |
//! | [`fig5`] | Fig. 5 — utility distribution of all strategies (Table III configs) |
//! | [`estimation`] | §V.A.2 — estimation correctness vs virtual-time measurement |
//! | [`fig6`] | Fig. 6 — generated vs predefined strategies |
//! | [`fig7`] | Fig. 7 — generation scaling beyond 5 microservices |
//! | [`table4`] | Table IV — testbed default vs generated strategy |
//! | [`fig8`] | Fig. 8 — per-slot QoS under reliability drift |
//! | [`ablation`] | design-choice ablations (k, window, cost semantics, latency shapes) |
//! | [`contention`] | §VII scarce-resource contention (capacity-limited devices) |
//! | [`synth`] | synthesis-engine benchmark — baseline vs pruned/parallel search |
//! | [`replan`] | slot re-planning benchmark — cold vs plan-cache |
//! | [`throughput`] | gateway throughput — concurrent clients, admission control, worker pool |
//! | [`fleet`] | sharded gateway fleet — consistent-hash routing + cross-shard plan economics |
//! | [`scenarios`] | adversarial scenario pack — storms, flash crowds, churn + QoS-consistency gate |
//!
//! Reports are printed to the console and written as TSV under `reports/`.
//!
//! ```bash
//! cargo run --release -p qce-bench --bin repro -- all
//! cargo run --release -p qce-bench --bin repro -- fig6 --services 100
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod contention;
pub mod estimation;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fleet;
pub mod replan;
pub mod report;
pub mod scenarios;
pub mod synth;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod testbed;
pub mod throughput;
