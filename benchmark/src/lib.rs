//! The repo's wall-clock benchmark: drives the public APIs of
//! `qce-strategy` and `qce-runtime` from outside, times them on the real
//! clock, checks their outputs, and prints every metric by name and unit.
//! See `README.md` beside this crate.

pub mod calibrate;
pub mod probes;
pub mod procfs;
pub mod report;
pub mod rig;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
