//! Observability: per-endpoint atomic counters and latency histograms.
//!
//! Everything here is wait-free on the hot path: recording a request finds
//! its row by the request's tag, then does a handful of relaxed atomic adds
//! (count, error flag, histogram bucket, running sum, `fetch_max`). Reading
//! statistics takes a consistent-enough snapshot by loading each atomic
//! once — the small skew between counters under concurrent traffic does not
//! matter for monitoring.

use crate::protocol::{EndpointStats, Request, ShardStats, SiteStats, StatsReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per power of two, as a bit count: each power of two
/// from `SUB` µs up is split into `SUB = 2^SUB_BITS` equal buckets.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Powers of two covered: up to 2^40 µs ≈ 12.7 days, far beyond any request.
const OCTAVES: usize = 40;
/// One exact bucket for each latency below `SUB` µs, then `SUB` per power of
/// two, so a bucket is never wider than 1/`SUB` of the values it holds.
const BUCKETS: usize = SUB + (OCTAVES - SUB_BITS as usize) * SUB;

/// Bucket holding a latency of `us` µs (clamped into the top bucket).
fn bucket_index(us: u64) -> usize {
    if us < SUB as u64 {
        return us as usize;
    }
    let log = us.ilog2();
    if log as usize >= OCTAVES {
        return BUCKETS - 1;
    }
    let shift = log - SUB_BITS;
    SUB * (1 + shift as usize) + ((us >> shift) as usize - SUB)
}

/// Largest latency (µs) that bucket `i` holds.
fn bucket_upper_us(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let (shift, sub) = ((i - SUB) / SUB, (i - SUB) % SUB);
    (((SUB + sub + 1) as u64) << shift) - 1
}

/// A lock-free latency histogram: log₂ buckets, each split into `SUB`
/// linear sub-buckets. The buckets live on the heap, so a metrics table
/// built by value is small to move.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
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
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
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
    /// Exact below 8 µs; from 8 µs up, a bucket is 1/8 as wide as its lower
    /// bound, so the answer lies within 1/8 above the true quantile. The
    /// bucket upper bound is clamped to the largest observation, so
    /// `quantile_us(1.0)` equals [`Self::max_us`] instead of overshooting to
    /// the end of the top occupied bucket.
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
                return bucket_upper_us(i).min(self.max_us());
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

/// The server-wide metrics table: one row per request kind, in the order of
/// [`Request::VARIANTS`], plus connection-lifecycle counters that have no
/// endpoint to charge.
#[derive(Debug, Default)]
pub struct Metrics {
    endpoints: [EndpointMetrics; Request::VARIANTS.len()],
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

    /// Records one served request of the kind with binary tag `tag`
    /// ([`Request::tag`]); a tag that no request kind has is not recorded.
    pub fn record(&self, tag: u8, latency: Duration, ok: bool) {
        let Some(row) = Request::VARIANTS.iter().position(|&(t, _)| t == tag) else {
            return;
        };
        let m = &self.endpoints[row];
        m.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.latency.record(latency);
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

    /// The `stats` report: every counter here, and every endpoint that has
    /// seen traffic in [`Request::VARIANTS`] order, next to the caller's
    /// uptime, site rows and shard rows.
    pub fn report(
        &self,
        uptime_s: f64,
        sites: Vec<SiteStats>,
        shards: Vec<ShardStats>,
    ) -> StatsReport {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let endpoints = Request::VARIANTS
            .iter()
            .zip(&self.endpoints)
            .filter_map(|(&(_, name), m)| {
                let requests = load(&m.requests);
                (requests > 0).then(|| EndpointStats {
                    endpoint: name.to_string(),
                    requests,
                    errors: load(&m.errors),
                    p50_us: m.latency.quantile_us(0.50),
                    p95_us: m.latency.quantile_us(0.95),
                    p99_us: m.latency.quantile_us(0.99),
                    max_us: m.latency.max_us(),
                })
            })
            .collect();
        StatsReport {
            uptime_s,
            conn_timeouts: load(&self.conn_timeouts),
            conn_resets: load(&self.conn_resets),
            conn_panics: load(&self.conn_panics),
            wire_frame_too_large: load(&self.wire_frame_too_large),
            wire_bad_magic: load(&self.wire_bad_magic),
            wire_checksum_mismatch: load(&self.wire_checksum_mismatch),
            wire_bad_utf8: load(&self.wire_bad_utf8),
            wire_malformed: load(&self.wire_malformed),
            endpoints,
            sites,
            shards,
        }
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
        // p50 is the third observation, 10 µs; buckets are 1 µs wide below
        // 16 µs.
        assert_eq!(p50, 10);
        // 10_000 µs lies in [9_216, 10_240); that bucket's upper bound
        // (10_239) is clamped to the max.
        assert_eq!(h.quantile_us(1.0), 10_000);
    }

    #[test]
    fn quantile_extremes_hit_first_and_last_observation_buckets() {
        let h = LatencyHistogram::default();
        for us in [3u64, 100, 9_000] {
            h.record(Duration::from_micros(us));
        }
        // q = 0.0 resolves to the first occupied bucket, the exact 3 µs one.
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
    fn buckets_tile_the_range_within_an_eighth() {
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(7), 7);
        let mut lower = 1u64;
        for i in 1..BUCKETS {
            let upper = bucket_upper_us(i);
            assert_eq!(bucket_index(lower), i, "lower bound {lower}");
            assert_eq!(bucket_index(upper), i, "upper bound {upper}");
            // From 8 µs up, a bucket is at most 1/8 as wide as its lower bound.
            assert!(upper - lower < lower.max(8) / 8 + 1, "bucket {i}: [{lower}, {upper}]");
            lower = upper + 1;
        }
        assert_eq!(lower, 1 << OCTAVES, "the top bucket ends at 2^{OCTAVES} µs");
    }

    #[test]
    fn a_quarter_shift_in_a_steady_latency_moves_p50() {
        // Before, log2 buckets reported both 12_000 and 15_000 µs as 16_383.
        for base in [9u64, 40, 1_000, 12_000, 200_000] {
            let steady = LatencyHistogram::default();
            let slower = LatencyHistogram::default();
            for k in 0..100 {
                steady.record(Duration::from_micros(base + k % 3));
                slower.record(Duration::from_micros(base * 5 / 4 + k % 3));
            }
            let (p, q) = (steady.quantile_us(0.5), slower.quantile_us(0.5));
            assert!(q > p, "base {base}: p50 {p} -> {q}");
            for (got, truth) in [(p, base + 1), (q, base * 5 / 4 + 1)] {
                assert!(got >= truth && got - truth <= truth / 8, "p50 {got} for {truth}");
            }
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
        for (i, &(tag, name)) in Request::VARIANTS.iter().enumerate() {
            assert!(Request::VARIANTS[..i].iter().all(|&(t, n)| t != tag && n != name), "{name}");
            let m = Metrics::new();
            m.record(tag, Duration::from_micros(1), true);
            let report = m.report(0.0, Vec::new(), Vec::new());
            let names: Vec<&str> = report.endpoints.iter().map(|r| r.endpoint.as_str()).collect();
            assert_eq!(names, [name], "tag {tag} is recorded in its own row");
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

    /// The names of the endpoints `m` reports.
    fn names(m: &Metrics) -> Vec<String> {
        m.report(0.0, Vec::new(), Vec::new()).endpoints.into_iter().map(|r| r.endpoint).collect()
    }

    #[test]
    fn report_follows_display_order_not_arrival_order() {
        let m = Metrics::new();
        m.record(Request::Stats.tag(), Duration::from_micros(5), false);
        m.record(1, Duration::from_micros(900), true);
        let report = m.report(0.0, Vec::new(), Vec::new()).endpoints;
        assert_eq!(names(&m), ["add-site", "stats"]);
        assert_eq!((report[0].errors, report[1].errors), (0, 1));
        assert_eq!(report[0].max_us, 900);

        // Every request kind, recorded last to first, reports under its v1
        // name in declaration order.
        for &(tag, _) in Request::VARIANTS.iter().rev() {
            m.record(tag, Duration::from_micros(3), true);
        }
        assert_eq!(
            names(&m),
            [
                "add-site",
                "remove-site",
                "list-sites",
                "locate",
                "locate-stream",
                "locate-batch",
                "ingest",
                "measure-refs",
                "refresh",
                "stats",
                "ping",
                "shutdown",
            ]
        );
    }

    #[test]
    fn connection_counters_are_independent() {
        let m = Metrics::new();
        m.record_conn_timeout();
        m.record_conn_timeout();
        m.record_conn_reset();
        m.record_conn_panic();
        let report = m.report(0.0, Vec::new(), Vec::new());
        assert_eq!((report.conn_timeouts, report.conn_resets, report.conn_panics), (2, 1, 1));
        assert!(report.endpoints.is_empty(), "no endpoint is charged");
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
        let r = m.report(0.0, Vec::new(), Vec::new());
        assert_eq!(r.wire_frame_too_large, 1);
        assert_eq!(r.wire_bad_magic, 1);
        assert_eq!(r.wire_checksum_mismatch, 1);
        assert_eq!(r.wire_bad_utf8, 1);
        assert_eq!(r.wire_malformed, 2);
        assert_eq!((r.conn_timeouts, r.conn_resets), (0, 0));
    }

    #[test]
    fn metrics_count_requests_and_errors() {
        let m = Metrics::new();
        let locate = Request::Locate { site: "lab".into(), y: Vec::new() }.tag();
        m.record(locate, Duration::from_micros(50), true);
        m.record(locate, Duration::from_micros(70), false);
        m.record(Request::Ping.tag(), Duration::from_micros(1), true);
        let report = m.report(0.0, Vec::new(), Vec::new()).endpoints;
        assert_eq!(report.len(), 2); // silent endpoints are omitted
        assert_eq!((report[0].endpoint.as_str(), report[0].requests), ("locate", 2));
        assert_eq!(report[0].errors, 1);
        assert_eq!((report[1].endpoint.as_str(), report[1].requests), ("ping", 1));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = std::sync::Arc::new(Metrics::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record(4, Duration::from_micros(12), true);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = m.report(0.0, Vec::new(), Vec::new()).endpoints;
        assert_eq!((report[0].endpoint.as_str(), report[0].requests), ("locate", 8000));
    }
}
