//! Credit-based admission in front of the pipeline: blocking-with-deadline
//! instead of silent shed.
//!
//! A queue that *drops* a batch when full and counts it is invisible to the
//! producer, which keeps offering at full rate while most of its samples
//! evaporate. [`CreditQueue`] is the admission-controlled front door the
//! sharded daemon uses: capacity is a budget of *sample credits*, and `offer`
//! blocks (up to a caller-chosen deadline) until credits free up rather than
//! shedding. Every offered batch gets exactly one verdict:
//!
//! * **Admitted** — credits reserved, the batch will reach the pipeline;
//! * **Deferred** — the deadline passed with the queue still full; the batch
//!   was *not* enqueued and the producer should retry after the returned
//!   hint;
//! * **Rejected** — the batch can never be admitted (larger than the whole
//!   credit budget, or the queue closed mid-wait).
//!
//! The three counters are conserved: `admitted + deferred + rejected ==
//! offered`, in batches and in samples — nothing is ever lost silently.
//! Credits are released only after the drain worker has *applied* the batch,
//! so the bound covers queued and in-flight work alike.

use crate::error::{IngestError, Result};
use crate::pipeline::Ingestor;
use crate::sample::LinkSample;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Verdict on one offered batch. Exactly one of these is returned (and
/// counted) per [`CreditQueue::offer`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Credits reserved; the batch is queued and will reach the pipeline.
    Admitted,
    /// The deadline elapsed with insufficient credits. The batch was **not**
    /// enqueued; retry after the hint.
    Deferred {
        /// Suggested producer back-off before retrying (ms).
        retry_after_ms: u64,
    },
    /// The batch cannot be admitted at all: it exceeds the whole credit
    /// budget, or the queue closed while the producer was waiting.
    Rejected,
}

/// Cumulative admission accounting. Conservation invariant:
/// `offered == admitted + deferred + rejected` for both batches and samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CreditStats {
    /// Batches offered (every `offer` call that got a verdict).
    pub offered_batches: u64,
    /// Samples offered.
    pub offered_samples: u64,
    /// Batches admitted.
    pub admitted_batches: u64,
    /// Samples admitted.
    pub admitted_samples: u64,
    /// Batches deferred at the deadline.
    pub deferred_batches: u64,
    /// Samples deferred at the deadline.
    pub deferred_samples: u64,
    /// Batches rejected outright.
    pub rejected_batches: u64,
    /// Samples rejected outright.
    pub rejected_samples: u64,
}

impl CreditStats {
    /// Samples that got no verdict — zero by construction; exposed so tests
    /// and benches can *assert* the no-silent-loss property instead of
    /// trusting it.
    pub fn silent_samples(&self) -> u64 {
        self.offered_samples - self.admitted_samples - self.deferred_samples - self.rejected_samples
    }
}

#[derive(Debug, Default)]
struct Counters {
    offered_batches: AtomicU64,
    offered_samples: AtomicU64,
    admitted_batches: AtomicU64,
    admitted_samples: AtomicU64,
    deferred_batches: AtomicU64,
    deferred_samples: AtomicU64,
    rejected_batches: AtomicU64,
    rejected_samples: AtomicU64,
}

#[derive(Debug)]
struct State {
    queue: VecDeque<Vec<LinkSample>>,
    /// Samples holding credits: queued plus currently being applied.
    in_flight: usize,
    closed: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Signals producers that credits were released (or the queue closed).
    space: Condvar,
    /// Signals the drain worker that work arrived (or the queue closed).
    work: Condvar,
}

/// A credit-gated, deadline-blocking front door to an [`Ingestor`].
#[derive(Debug)]
pub struct CreditQueue {
    ingestor: Arc<Ingestor>,
    shared: Arc<Shared>,
    counters: Arc<Counters>,
    capacity_samples: usize,
    worker: Option<JoinHandle<()>>,
}

impl CreditQueue {
    /// Spawns the drain worker with a budget of `capacity_samples` credits
    /// (clamped to at least 1).
    pub fn spawn(ingestor: Arc<Ingestor>, capacity_samples: usize) -> CreditQueue {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queue: VecDeque::new(), in_flight: 0, closed: false }),
            space: Condvar::new(),
            work: Condvar::new(),
        });
        let drain = Arc::clone(&ingestor);
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("tafloc-credit-drain".to_string())
            .spawn(move || loop {
                let batch = {
                    let mut st = worker_shared.state.lock().unwrap_or_else(|p| p.into_inner());
                    loop {
                        if let Some(b) = st.queue.pop_front() {
                            break b;
                        }
                        if st.closed {
                            return;
                        }
                        st = worker_shared.work.wait(st).unwrap_or_else(|p| p.into_inner());
                    }
                };
                let n = batch.len();
                drain.apply_batch(&batch);
                let mut st = worker_shared.state.lock().unwrap_or_else(|p| p.into_inner());
                st.in_flight -= n;
                drop(st);
                worker_shared.space.notify_all();
            })
            .expect("spawning the credit drain thread cannot fail");
        CreditQueue {
            ingestor,
            shared,
            counters: Arc::new(Counters::default()),
            capacity_samples: capacity_samples.max(1),
            worker: Some(worker),
        }
    }

    /// The pipeline behind the queue.
    pub fn ingestor(&self) -> &Arc<Ingestor> {
        &self.ingestor
    }

    /// The credit budget (samples).
    pub fn capacity_samples(&self) -> usize {
        self.capacity_samples
    }

    /// Samples currently holding credits (queued + being applied).
    pub fn depth_samples(&self) -> usize {
        self.shared.state.lock().unwrap_or_else(|p| p.into_inner()).in_flight
    }

    /// Offers one batch, blocking up to `deadline` for credits.
    ///
    /// Returns an error (without counting the batch as offered) only when the
    /// queue was already closed before the call; every counted offer gets a
    /// conserved [`Admission`] verdict.
    pub fn offer(&self, batch: Vec<LinkSample>, deadline: Duration) -> Result<Admission> {
        let n = batch.len();
        {
            let st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            if st.closed {
                return Err(IngestError::QueueClosed);
            }
        }
        self.counters.offered_batches.fetch_add(1, Ordering::Relaxed);
        self.counters.offered_samples.fetch_add(n as u64, Ordering::Relaxed);
        if n > self.capacity_samples {
            // Larger than the whole budget: can never be admitted, so
            // waiting would be a lie.
            self.counters.rejected_batches.fetch_add(1, Ordering::Relaxed);
            self.counters.rejected_samples.fetch_add(n as u64, Ordering::Relaxed);
            return Ok(Admission::Rejected);
        }
        let start = Instant::now();
        let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if st.closed {
                // Closed mid-wait: the offer was counted, so it must get a
                // verdict — a terminal rejection, not silence.
                self.counters.rejected_batches.fetch_add(1, Ordering::Relaxed);
                self.counters.rejected_samples.fetch_add(n as u64, Ordering::Relaxed);
                return Ok(Admission::Rejected);
            }
            if st.in_flight + n <= self.capacity_samples {
                st.in_flight += n;
                st.queue.push_back(batch);
                drop(st);
                self.shared.work.notify_one();
                self.counters.admitted_batches.fetch_add(1, Ordering::Relaxed);
                self.counters.admitted_samples.fetch_add(n as u64, Ordering::Relaxed);
                return Ok(Admission::Admitted);
            }
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                drop(st);
                self.counters.deferred_batches.fetch_add(1, Ordering::Relaxed);
                self.counters.deferred_samples.fetch_add(n as u64, Ordering::Relaxed);
                return Ok(Admission::Deferred {
                    retry_after_ms: (deadline.as_millis() as u64).max(1),
                });
            }
            let (guard, _) = self
                .shared
                .space
                .wait_timeout(st, deadline - elapsed)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    /// Snapshot of the admission counters.
    pub fn stats(&self) -> CreditStats {
        CreditStats {
            offered_batches: self.counters.offered_batches.load(Ordering::Relaxed),
            offered_samples: self.counters.offered_samples.load(Ordering::Relaxed),
            admitted_batches: self.counters.admitted_batches.load(Ordering::Relaxed),
            admitted_samples: self.counters.admitted_samples.load(Ordering::Relaxed),
            deferred_batches: self.counters.deferred_batches.load(Ordering::Relaxed),
            deferred_samples: self.counters.deferred_samples.load(Ordering::Relaxed),
            rejected_batches: self.counters.rejected_batches.load(Ordering::Relaxed),
            rejected_samples: self.counters.rejected_samples.load(Ordering::Relaxed),
        }
    }

    /// Closes the queue and waits for the worker to drain every admitted
    /// batch. Producers blocked in `offer` are woken and get `Rejected`.
    /// Safe to call once; `drop` calls it implicitly.
    pub fn close(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.closed = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

impl Drop for CreditQueue {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IngestConfig;

    fn ingestor() -> Arc<Ingestor> {
        Arc::new(Ingestor::new(IngestConfig::default(), 2, 1).unwrap())
    }

    fn batch(t0: f64, len: usize) -> Vec<LinkSample> {
        (0..len).map(|k| LinkSample::new(k % 2, t0 + k as f64 * 0.01, -50.0)).collect()
    }

    #[test]
    fn admitted_batches_reach_the_pipeline_and_release_credits() {
        let ing = ingestor();
        let mut q = CreditQueue::spawn(Arc::clone(&ing), 8);
        // 20 batches of 4 through a budget of 8: producers must block on the
        // drain rather than fail, so with a generous deadline everything is
        // admitted.
        for round in 0..20 {
            let verdict = q.offer(batch(round as f64, 4), Duration::from_secs(10)).unwrap();
            assert_eq!(verdict, Admission::Admitted);
        }
        q.close();
        let stats = q.stats();
        assert_eq!(stats.admitted_batches, 20);
        assert_eq!(stats.admitted_samples, 80);
        assert_eq!(stats.silent_samples(), 0);
        assert_eq!(ing.stats().accepted, 80, "every admitted sample was applied");
        assert_eq!(q.depth_samples(), 0, "credits released after the drain");
    }

    #[test]
    fn dropping_the_queue_drains_admitted_batches() {
        let ing = ingestor();
        let q = CreditQueue::spawn(Arc::clone(&ing), 64);
        for round in 0..10 {
            let verdict = q.offer(batch(round as f64, 4), Duration::from_secs(10)).unwrap();
            assert_eq!(verdict, Admission::Admitted);
        }
        // No explicit close: `Drop` must still wait for the drain.
        drop(q);
        assert_eq!(ing.stats().accepted, 40);
    }

    #[test]
    fn oversized_batches_are_rejected_not_deadlocked() {
        let ing = ingestor();
        let q = CreditQueue::spawn(ing, 4);
        let start = Instant::now();
        let verdict = q.offer(batch(0.0, 5), Duration::from_secs(30)).unwrap();
        assert_eq!(verdict, Admission::Rejected);
        assert!(start.elapsed() < Duration::from_secs(5), "rejection is immediate");
        let stats = q.stats();
        assert_eq!(stats.rejected_batches, 1);
        assert_eq!(stats.rejected_samples, 5);
        assert_eq!(stats.silent_samples(), 0);
    }

    #[test]
    fn offer_after_close_errors_without_counting() {
        let ing = ingestor();
        let mut q = CreditQueue::spawn(ing, 4);
        q.close();
        assert!(matches!(q.offer(batch(0.0, 2), Duration::ZERO), Err(IngestError::QueueClosed)));
        assert_eq!(q.stats().offered_batches, 0);
    }

    #[test]
    fn zero_deadline_defers_when_full() {
        let ing = ingestor();
        let q = CreditQueue::spawn(ing, 4);
        // Fill the budget, then offer with no patience: the second offer may
        // be admitted (if the drain already freed credits) or deferred —
        // never lost.
        let mut deferred = 0u64;
        for round in 0..50 {
            match q.offer(batch(round as f64, 4), Duration::ZERO).unwrap() {
                Admission::Deferred { retry_after_ms } => {
                    assert!(retry_after_ms >= 1);
                    deferred += 1;
                }
                Admission::Admitted => {}
                Admission::Rejected => panic!("nothing here exceeds the budget"),
            }
        }
        let stats = q.stats();
        assert_eq!(stats.offered_batches, 50);
        assert_eq!(stats.deferred_batches, deferred);
        assert_eq!(stats.admitted_batches + stats.deferred_batches, 50);
        assert_eq!(stats.silent_samples(), 0);
    }
}
