//! The raw unit of ingestion: one timestamped RSS reading on one link.

taf_wire::schema! {
    /// One raw RSS sample as a radio (or the simulator) emits it.
    ///
    /// Timestamps are seconds on the *stream clock* — any monotonic-enough clock
    /// shared by the radios. The pipeline never consults wall time: staleness and
    /// window horizons are measured against the newest timestamp seen so far, so
    /// replaying a recorded stream is bit-for-bit reproducible.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct LinkSample {
        /// Link index in the site's deployment order (`0..M`).
        pub link: usize,
        /// Sample time in seconds on the stream clock.
        pub t_s: f64,
        /// Received signal strength in dBm.
        pub rss_dbm: f64,
    }
}

impl LinkSample {
    /// Convenience constructor.
    pub fn new(link: usize, t_s: f64, rss_dbm: f64) -> Self {
        LinkSample { link, t_s, rss_dbm }
    }

    /// Whether the sample is usable at all: finite time and RSS.
    pub fn is_finite(&self) -> bool {
        self.t_s.is_finite() && self.rss_dbm.is_finite()
    }
}

taf_wire::schema! {
    /// Per-batch accounting returned by [`crate::Ingestor::apply_batch`].
    ///
    /// Exactly one counter accounts for every sample in the batch:
    /// `accepted + dropped_late + dropped_unknown_link + dropped_non_finite`
    /// equals the batch length. Outlier rejection happens later, at aggregation
    /// time, and is reported in cumulative [`crate::IngestStats`] instead —
    /// a sample that looks like an outlier now may be rehabilitated once its
    /// neighbors arrive.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct BatchReport {
        /// Samples admitted into a window.
        pub accepted: u64,
        /// Samples older than the window horizon on arrival.
        pub dropped_late: u64,
        /// Samples naming a link the pipeline does not know.
        pub dropped_unknown_link: u64,
        /// Samples with a NaN/infinite time or RSS.
        pub dropped_non_finite: u64,
    }
}

impl BatchReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &BatchReport) {
        self.accepted += other.accepted;
        self.dropped_late += other.dropped_late;
        self.dropped_unknown_link += other.dropped_unknown_link;
        self.dropped_non_finite += other.dropped_non_finite;
    }

    /// Total samples the report accounts for.
    pub fn total(&self) -> u64 {
        self.accepted + self.dropped_late + self.dropped_unknown_link + self.dropped_non_finite
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_check() {
        assert!(LinkSample::new(0, 1.0, -50.0).is_finite());
        assert!(!LinkSample::new(0, f64::NAN, -50.0).is_finite());
        assert!(!LinkSample::new(0, 1.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn report_merge_accounts_for_everything() {
        let mut a = BatchReport { accepted: 3, dropped_late: 1, ..Default::default() };
        let b = BatchReport { accepted: 2, dropped_unknown_link: 4, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.total(), 10);
        assert_eq!(a.accepted, 5);
    }

    #[test]
    fn merge_adds_each_counter_into_its_own_field() {
        let r = BatchReport {
            accepted: 4,
            dropped_late: 1,
            dropped_unknown_link: 2,
            dropped_non_finite: 3,
        };
        let mut sum = BatchReport::default();
        assert_eq!(sum.total(), 0);
        sum.merge(&r);
        assert_eq!(sum, r, "the empty report is the merge identity");
        sum.merge(&r);
        assert_eq!(
            sum,
            BatchReport {
                accepted: 8,
                dropped_late: 2,
                dropped_unknown_link: 4,
                dropped_non_finite: 6,
            }
        );
        assert_eq!(sum.total(), 2 * r.total());
    }
}
