//! Observability: per-endpoint atomic counters and latency histograms.
//!
//! Everything here is wait-free on the hot path: recording a request is a
//! handful of relaxed atomic adds (count, error flag, histogram bucket,
//! running sum, `fetch_max`). Reading statistics takes a consistent-enough
//! snapshot by loading each atomic once — the small skew between counters
//! under concurrent traffic does not matter for monitoring.

use crate::protocol::EndpointStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Power-of-two latency buckets: bucket `i` covers `[2^i, 2^{i+1})` µs.
/// 40 buckets reach ~2^40 µs ≈ 12.7 days, far beyond any request.
const BUCKETS: usize = 40;

/// The daemon's request endpoints (metrics keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Endpoint {
    AddSite,
    RemoveSite,
    ListSites,
    Locate,
    LocateStream,
    LocateBatch,
    Ingest,
    Track,
    Detect,
    MeasureRefs,
    Refresh,
    Stats,
    Ping,
    Shutdown,
}

/// All endpoints, in display order.
pub const ALL_ENDPOINTS: [Endpoint; 14] = [
    Endpoint::AddSite,
    Endpoint::RemoveSite,
    Endpoint::ListSites,
    Endpoint::Locate,
    Endpoint::LocateStream,
    Endpoint::LocateBatch,
    Endpoint::Ingest,
    Endpoint::Track,
    Endpoint::Detect,
    Endpoint::MeasureRefs,
    Endpoint::Refresh,
    Endpoint::Stats,
    Endpoint::Ping,
    Endpoint::Shutdown,
];

impl Endpoint {
    /// Wire name of the endpoint.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::AddSite => "add-site",
            Endpoint::RemoveSite => "remove-site",
            Endpoint::ListSites => "list-sites",
            Endpoint::Locate => "locate",
            Endpoint::LocateStream => "locate-stream",
            Endpoint::LocateBatch => "locate-batch",
            Endpoint::Ingest => "ingest",
            Endpoint::Track => "track",
            Endpoint::Detect => "detect",
            Endpoint::MeasureRefs => "measure-refs",
            Endpoint::Refresh => "refresh",
            Endpoint::Stats => "stats",
            Endpoint::Ping => "ping",
            Endpoint::Shutdown => "shutdown",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A lock-free log₂ latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let us = (latency.as_micros() as u64).max(1);
        let idx = (us.ilog2() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest observation in µs.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Upper bound (µs) of the bucket holding quantile `q` (0 when empty).
    /// Log-bucketed, so the answer is within 2x of the true quantile — plenty
    /// for a `stats` endpoint. The bucket upper bound is clamped to the
    /// largest observation, so `quantile_us(1.0)` equals [`Self::max_us`]
    /// instead of overshooting to the end of the top occupied bucket.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return ((1u64 << (i + 1)) - 1).min(self.max_us());
            }
        }
        self.max_us()
    }
}

/// Counters + histogram for one endpoint.
#[derive(Debug, Default)]
pub struct EndpointMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: LatencyHistogram,
}

/// The server-wide metrics table, indexed by [`Endpoint`], plus
/// connection-lifecycle counters that have no endpoint to charge.
#[derive(Debug, Default)]
pub struct Metrics {
    endpoints: [EndpointMetrics; ALL_ENDPOINTS.len()],
    /// Connections closed because the read timeout elapsed (idle peer).
    conn_timeouts: AtomicU64,
    /// Connections closed by a transport error (reset, broken pipe, ...).
    conn_resets: AtomicU64,
    /// Connection handlers that panicked (isolated; the worker survived).
    conn_panics: AtomicU64,
    /// Frames (or v1 lines) rejected for exceeding the size cap.
    wire_frame_too_large: AtomicU64,
    /// v2 frames with an unknown version byte (connection closed).
    wire_bad_magic: AtomicU64,
    /// v2 frames whose payload failed its CRC32 check.
    wire_checksum_mismatch: AtomicU64,
    /// Messages rejected for invalid UTF-8 (connection closed).
    wire_bad_utf8: AtomicU64,
    /// Messages that framed correctly but failed to decode.
    wire_malformed: AtomicU64,
}

impl Metrics {
    /// Creates an empty table.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one served request.
    pub fn record(&self, endpoint: Endpoint, latency: Duration, ok: bool) {
        let m = &self.endpoints[endpoint.index()];
        m.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.latency.record(latency);
    }

    /// Requests served on one endpoint so far.
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        self.endpoints[endpoint.index()].requests.load(Ordering::Relaxed)
    }

    /// Error responses on one endpoint so far.
    pub fn errors(&self, endpoint: Endpoint) -> u64 {
        self.endpoints[endpoint.index()].errors.load(Ordering::Relaxed)
    }

    /// Records a connection closed by a read timeout.
    pub fn record_conn_timeout(&self) {
        self.conn_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection closed by a transport error.
    pub fn record_conn_reset(&self) {
        self.conn_resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection handler that panicked.
    pub fn record_conn_panic(&self) {
        self.conn_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections closed by a read timeout so far.
    pub fn conn_timeouts(&self) -> u64 {
        self.conn_timeouts.load(Ordering::Relaxed)
    }

    /// Connections closed by a transport error so far.
    pub fn conn_resets(&self) -> u64 {
        self.conn_resets.load(Ordering::Relaxed)
    }

    /// Connection handlers that panicked so far.
    pub fn conn_panics(&self) -> u64 {
        self.conn_panics.load(Ordering::Relaxed)
    }

    /// Records one wire-level decode/framing failure by kind. Truncation and
    /// transport I/O are connection-lifecycle events, not codec failures;
    /// they are charged to the reset/timeout counters by the caller instead.
    pub fn record_wire_error(&self, err: &taf_wire::WireError) {
        use taf_wire::WireError as E;
        match err {
            E::FrameTooLarge { .. } => &self.wire_frame_too_large,
            E::BadMagic { .. } => &self.wire_bad_magic,
            E::ChecksumMismatch { .. } => &self.wire_checksum_mismatch,
            E::BadUtf8 => &self.wire_bad_utf8,
            E::Malformed(_) => &self.wire_malformed,
            E::Truncated | E::Io(_) => return,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Oversized-frame rejections so far (both protocol versions).
    pub fn wire_frame_too_large(&self) -> u64 {
        self.wire_frame_too_large.load(Ordering::Relaxed)
    }

    /// Unknown-version-byte rejections so far.
    pub fn wire_bad_magic(&self) -> u64 {
        self.wire_bad_magic.load(Ordering::Relaxed)
    }

    /// Checksum-mismatch rejections so far.
    pub fn wire_checksum_mismatch(&self) -> u64 {
        self.wire_checksum_mismatch.load(Ordering::Relaxed)
    }

    /// Invalid-UTF-8 rejections so far.
    pub fn wire_bad_utf8(&self) -> u64 {
        self.wire_bad_utf8.load(Ordering::Relaxed)
    }

    /// Well-framed but undecodable messages so far.
    pub fn wire_malformed(&self) -> u64 {
        self.wire_malformed.load(Ordering::Relaxed)
    }

    /// Snapshot of every endpoint that has seen traffic.
    pub fn report(&self) -> Vec<EndpointStats> {
        ALL_ENDPOINTS
            .iter()
            .filter_map(|&e| {
                let m = &self.endpoints[e.index()];
                let requests = m.requests.load(Ordering::Relaxed);
                if requests == 0 {
                    return None;
                }
                Some(EndpointStats {
                    endpoint: e.name().to_string(),
                    requests,
                    errors: m.errors.load(Ordering::Relaxed),
                    p50_us: m.latency.quantile_us(0.50),
                    p95_us: m.latency.quantile_us(0.95),
                    p99_us: m.latency.quantile_us(0.99),
                    max_us: m.latency.max_us(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let h = LatencyHistogram::default();
        for us in [3u64, 10, 10, 100, 1000, 10_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max_us(), 10_000);
        let p50 = h.quantile_us(0.5);
        let p95 = h.quantile_us(0.95);
        let p99 = h.quantile_us(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        // p50 lands in the bucket containing 10 µs: [8, 16).
        assert_eq!(p50, 15);
        // The top bucket's upper bound (16_383) is clamped to the max.
        assert_eq!(h.quantile_us(1.0), 10_000);
    }

    #[test]
    fn quantile_extremes_hit_first_and_last_observation_buckets() {
        let h = LatencyHistogram::default();
        for us in [3u64, 100, 9_000] {
            h.record(Duration::from_micros(us));
        }
        // q = 0.0 resolves to the first occupied bucket: 3 µs lies in [2, 4).
        assert_eq!(h.quantile_us(0.0), 3);
        // q = 1.0 is exactly the largest observation, not its bucket bound.
        assert_eq!(h.quantile_us(1.0), h.max_us());
        assert_eq!(h.quantile_us(1.0), 9_000);
    }

    #[test]
    fn single_observation_is_its_own_quantile() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(700));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 700, "q = {q}");
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.0), 0);
        assert_eq!(h.quantile_us(0.99), 0);
        assert_eq!(h.quantile_us(1.0), 0);
        assert_eq!(h.max_us(), 0);
    }

    #[test]
    fn endpoint_indices_follow_display_order() {
        for (i, e) in ALL_ENDPOINTS.iter().enumerate() {
            assert_eq!(e.index(), i, "{e:?}");
            assert!(ALL_ENDPOINTS[..i].iter().all(|o| o.name() != e.name()), "{e:?}");
        }
    }

    #[test]
    fn out_of_range_latencies_are_clamped_into_the_buckets() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.max_us(), 1, "sub-microsecond latencies count as 1 µs");
        assert_eq!(h.quantile_us(1.0), 1);
        // About 12 days: past 2^39 µs, so it lands in the top bucket.
        let huge = Duration::from_secs(1 << 20);
        h.record(huge);
        assert_eq!(h.max_us(), huge.as_micros() as u64);
        assert_eq!(h.quantile_us(1.0), h.max_us());
        assert_eq!(h.quantile_us(0.5), 1);
    }

    #[test]
    fn report_follows_display_order_not_arrival_order() {
        let m = Metrics::new();
        m.record(Endpoint::Stats, Duration::from_micros(5), false);
        m.record(Endpoint::AddSite, Duration::from_micros(900), true);
        let report = m.report();
        let names: Vec<&str> = report.iter().map(|r| r.endpoint.as_str()).collect();
        assert_eq!(names, ["add-site", "stats"]);
        assert_eq!((report[0].errors, report[1].errors), (0, 1));
        assert_eq!(report[0].max_us, 900);
    }

    #[test]
    fn connection_counters_are_independent() {
        let m = Metrics::new();
        m.record_conn_timeout();
        m.record_conn_timeout();
        m.record_conn_reset();
        m.record_conn_panic();
        assert_eq!(m.conn_timeouts(), 2);
        assert_eq!(m.conn_resets(), 1);
        assert_eq!(m.conn_panics(), 1);
        assert_eq!(m.requests(Endpoint::Ping), 0, "no endpoint is charged");
    }

    #[test]
    fn wire_errors_are_counted_by_kind() {
        use taf_wire::WireError as E;
        let m = Metrics::new();
        m.record_wire_error(&E::FrameTooLarge { got: 99, limit: 16 });
        m.record_wire_error(&E::BadMagic { got: 0x7F });
        m.record_wire_error(&E::ChecksumMismatch { stored: 1, computed: 2 });
        m.record_wire_error(&E::BadUtf8);
        m.record_wire_error(&E::malformed("nope"));
        m.record_wire_error(&E::malformed("still nope"));
        // Truncation is a connection-lifecycle event, not a codec counter.
        m.record_wire_error(&E::Truncated);
        assert_eq!(m.wire_frame_too_large(), 1);
        assert_eq!(m.wire_bad_magic(), 1);
        assert_eq!(m.wire_checksum_mismatch(), 1);
        assert_eq!(m.wire_bad_utf8(), 1);
        assert_eq!(m.wire_malformed(), 2);
    }

    #[test]
    fn metrics_count_requests_and_errors() {
        let m = Metrics::new();
        m.record(Endpoint::Locate, Duration::from_micros(50), true);
        m.record(Endpoint::Locate, Duration::from_micros(70), false);
        m.record(Endpoint::Ping, Duration::from_micros(1), true);
        assert_eq!(m.requests(Endpoint::Locate), 2);
        assert_eq!(m.errors(Endpoint::Locate), 1);
        assert_eq!(m.requests(Endpoint::Refresh), 0);
        let report = m.report();
        assert_eq!(report.len(), 2); // silent endpoints are omitted
        assert!(report.iter().any(|r| r.endpoint == "locate" && r.requests == 2));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = std::sync::Arc::new(Metrics::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record(Endpoint::Locate, Duration::from_micros(12), true);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.requests(Endpoint::Locate), 8000);
    }
}
