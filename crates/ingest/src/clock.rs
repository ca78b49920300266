//! The pipeline's notion of "now": sample-driven by default, hand-driven in
//! tests.
//!
//! The ingestion pipeline never consults the wall clock — every decision that
//! involves time (late-sample drops, window eviction, staleness) is made
//! against a *stream clock*. [`ClockMode`] selects where that clock comes
//! from:
//!
//! * [`ClockMode::SampleDriven`] (the default, and the production behavior):
//!   the clock is the newest sample timestamp the pipeline has seen. Time
//!   advances exactly as fast as data arrives, so replaying a recorded
//!   stream reproduces every decision bit for bit.
//! * [`ClockMode::Manual`]: the clock only moves when the owner calls
//!   [`crate::Ingestor::advance_clock_to`]. A test harness injecting faults
//!   (link death, loss bursts, clock skew) uses this to pin "now" to the
//!   nominal scenario time, so a fault that silences *every* link still ages
//!   the windows deterministically — under sample-driven time a total outage
//!   would freeze the clock and mask the staleness it should cause.
//!
//! Either way the clock is monotone: it never moves backwards.

/// Where the pipeline's stream clock comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// "Now" is the maximum sample timestamp seen (production default).
    #[default]
    SampleDriven,
    /// "Now" only advances via [`crate::Ingestor::advance_clock_to`]
    /// (deterministic test harnesses; fault injection).
    Manual,
}
