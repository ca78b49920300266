//! Host-speed reference: a fixed kernel timed between ops.
//!
//! On a shared host the same work takes up to 1.7 times longer in some
//! seconds than in others, and which seconds are slow differs from run to
//! run. The reference kernel is timed on the same CPU as the work it
//! calibrates, interleaved with it, and a pass's timings are scaled by
//! `NOMINAL_US / median kernel time of the pass`: they read as the time the
//! work would have taken on a host running the kernel in [`NOMINAL_US`]. A
//! faster program still reads faster; a slower host does not. The kernel is
//! the benchmark's own code, so no change to the program under test moves
//! it.
//!
//! The kernel formats 192 floats as decimal text and parses them back: the
//! integer-heavy, branchy mix of codecs, dispatch and system calls. Per
//! 250 ms window on the 2-vCPU host, a round trip's time divided by this
//! kernel's varied 3-4% where the raw time varied 10-14%; a 64 x 64 matrix
//! product tracked far worse (8-11%), since dense floating point slows much
//! more than integer code when the host is contended, and left more spread
//! between runs even on the LoLi-IR refresh cycle (5% against 4%). One
//! factor per pass, rather than one per window, keeps the shape of the
//! latency distribution: scaling each op by its window's factor made the
//! p90 of `locate` spread 9% between runs, one factor per pass 3-4%.

use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time (µs) scaled timings are expressed against: the kernel's
/// median on the 2-vCPU host the benchmark was sized on, in a quiet period.
pub const NOMINAL_US: f64 = 40.0;

/// Values the kernel formats and parses per run.
const VALUES: usize = 192;

/// Kernel timings on one CPU over a pass.
#[derive(Debug, Clone)]
pub struct SpeedLog {
    values: Vec<f64>,
    text: String,
    samples_us: Vec<f64>,
}

impl Default for SpeedLog {
    fn default() -> Self {
        let mut rng = crate::inputs::Rng::new(0x7e57, 0);
        SpeedLog {
            // RSS-like readings with full-precision digits.
            values: (0..VALUES).map(|_| -40.0 - 50.0 * rng.unit()).collect(),
            text: String::with_capacity(VALUES * 24),
            samples_us: Vec::new(),
        }
    }
}

impl SpeedLog {
    /// Times the kernel once on the calling thread.
    pub fn sample(&mut self) {
        let start = Instant::now();
        self.text.clear();
        for v in black_box(&self.values) {
            write!(self.text, "{v},").expect("writing to a String cannot fail");
        }
        let sum: f64 = self
            .text
            .split_terminator(',')
            .map(|x| x.parse::<f64>().expect("the kernel parses its own output"))
            .sum();
        black_box(sum);
        self.samples_us.push(start.elapsed().as_nanos() as f64 / 1e3);
    }

    /// Total seconds spent in the kernel (to leave out of CPU accounting).
    pub fn spent_s(&self) -> f64 {
        self.samples_us.iter().sum::<f64>() / 1e6
    }

    /// What a raw timing of this pass is multiplied by to read in
    /// reference-kernel time (1 when the kernel never ran).
    pub fn factor(&self) -> f64 {
        if self.samples_us.is_empty() {
            1.0
        } else {
            NOMINAL_US / crate::stats::median(&self.samples_us)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_round_trips_its_values() {
        let mut log = SpeedLog::default();
        log.sample();
        assert!(log.samples_us[0] > 0.0);
        let parsed: Vec<f64> = log.text.split_terminator(',').map(|x| x.parse().unwrap()).collect();
        assert_eq!(parsed, log.values, "shortest round-trip text parses back exactly");
    }

    #[test]
    fn factor_is_nominal_over_the_median() {
        let mut log = SpeedLog::default();
        assert_eq!(log.factor(), 1.0, "no samples, no scaling");
        log.samples_us = vec![80.0, 20.0, 80.0];
        assert_eq!(log.factor(), NOMINAL_US / 80.0);
        assert_eq!(log.spent_s(), 180.0 / 1e6);
    }
}
