//! The reference kernel: a fixed piece of memory-bound work whose speed
//! tells how fast the box is right now.
//!
//! The benchmark is sized on a small shared VM whose speed swings with its
//! neighbours' cache and memory traffic: a pure arithmetic chain runs at a
//! constant speed there while anything that touches memory slows by up to
//! 1.8x, in episodes that last from milliseconds to many minutes. No
//! statistic taken over a run's own timings can remove an episode that
//! outlasts the run. The kernel below (ten read-modify-write passes over
//! 256 KiB, about 90 us) slows by about the same factor as the gateway's
//! request paths do when both run on one CPU, so every timing the
//! benchmark reports is taken *relative to the kernel*: sampled every few
//! milliseconds beside the timed requests, on the same CPU, and scaled to
//! the fastest the box ran the kernel during the run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::percentile;

const PASSES: usize = 10;

/// The kernel, its scratch buffer, and every reading of the run.
#[derive(Debug)]
pub struct Calibrator {
    buffer: Vec<u64>,
    readings_ns: Vec<u32>,
    total_ns: u64,
    /// The fastest each pass has run so far (ns).
    pass_floor_ns: [u32; PASSES],
}

/// A point in a [`Calibrator`]'s sequence of readings.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    count: usize,
    total_ns: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            buffer: vec![0; 32 * 1024],
            readings_ns: Vec::with_capacity(16 * 1024),
            total_ns: 0,
            pass_floor_ns: [u32::MAX; PASSES],
        }
    }
}

fn ns(duration: Duration) -> u32 {
    u32::try_from(duration.as_nanos()).unwrap_or(u32::MAX)
}

impl Calibrator {
    /// Runs the kernel once, records how long it took and returns that, so
    /// the caller can leave it out of what it is timing.
    pub fn sample(&mut self) -> Duration {
        let start = Instant::now();
        let mut sum = 0u64;
        let mut pass_start = start;
        for (round, floor) in self.pass_floor_ns.iter_mut().enumerate() {
            for (i, value) in self.buffer.iter_mut().enumerate() {
                *value = value.wrapping_add(i as u64 ^ round as u64);
                sum = sum.wrapping_add(*value);
            }
            let pass_end = Instant::now();
            *floor = (*floor).min(ns(pass_end - pass_start));
            pass_start = pass_end;
        }
        black_box(sum);
        let spent = start.elapsed();
        self.readings_ns.push(ns(spent));
        self.total_ns += u64::from(ns(spent));
        spent
    }

    /// `count` samples back to back; returns the time they took together.
    pub fn burst(&mut self, count: usize) -> Duration {
        (0..count).map(|_| self.sample()).sum()
    }

    pub fn mark(&self) -> Mark {
        Mark {
            count: self.readings_ns.len(),
            total_ns: self.total_ns,
        }
    }

    /// Mean reading (ns) since `mark`; `NaN` when there was none. What a
    /// long stretch of work paid: stalls included.
    pub fn mean_ns_since(&self, mark: Mark) -> f64 {
        (self.total_ns - mark.total_ns) as f64 / (self.readings_ns.len() - mark.count) as f64
    }

    /// Median reading (ns) since `mark`; zero when there was none. What a
    /// typical short piece of work paid: stalls excluded.
    pub fn median_ns_since(&self, mark: Mark) -> f64 {
        f64::from(percentile(&mut self.readings_ns[mark.count..].to_vec(), 50.0).unwrap_or(0))
    }

    /// How fast the undisturbed box runs the kernel (ns), as far as this
    /// run saw: the sum over the ten passes of the fastest each one ever
    /// ran. A pass takes 9 us, so even in a minute in which no whole sample
    /// escapes the neighbours (the fastest of 800 samples read 112 us
    /// against 94 us in the runs around it) every pass has, and this sum
    /// stayed within 1.5% of its value in quiet runs. The scale is the
    /// run's own; no constant of the sizing box is baked in.
    pub fn undisturbed_ns(&self) -> f64 {
        self.pass_floor_ns
            .iter()
            .map(|floor| f64::from(*floor))
            .sum()
    }

    /// Median of all readings (ns).
    pub fn median_ns(&self) -> f64 {
        self.median_ns_since(Mark {
            count: 0,
            total_ns: 0,
        })
    }
}
