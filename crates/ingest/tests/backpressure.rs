//! Admission-control conservation under concurrent producers.
//!
//! The credit policy's contract is that **nothing is lost silently**: every
//! offered batch gets exactly one verdict, and
//! `admitted + deferred + rejected == offered` holds in batches and samples
//! even with several producers racing a deliberately tiny credit budget.
//! Producers that shed instead of waiting record each shed batch with
//! [`Ingestor::record_queue_drop`]; that accounting must conserve samples too.

use std::sync::Arc;
use std::time::Duration;
use tafloc_ingest::{Admission, CreditQueue, IngestConfig, Ingestor, LinkSample};

const PRODUCERS: usize = 4;
const ROUNDS: usize = 60;
const BATCH: usize = 8;

fn ingestor() -> Arc<Ingestor> {
    Arc::new(Ingestor::new(IngestConfig::default(), 2, 1).unwrap())
}

fn batch(producer: usize, round: usize) -> Vec<LinkSample> {
    (0..BATCH)
        .map(|k| {
            let t = (round * BATCH + k) as f64 * 0.01 + producer as f64 * 1e-4;
            LinkSample::new(k % 2, t, -50.0)
        })
        .collect()
}

#[test]
fn concurrent_offers_past_capacity_conserve_every_verdict() {
    // Capacity of three batches' worth of samples against four producers:
    // the gate is guaranteed to defer under pressure.
    let queue = Arc::new(CreditQueue::spawn(ingestor(), 3 * BATCH));

    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = Arc::clone(&queue);
            std::thread::spawn(move || {
                let (mut admitted, mut deferred, mut rejected) = (0u64, 0u64, 0u64);
                for round in 0..ROUNDS {
                    // Short deadline so contention actually produces
                    // Deferred verdicts instead of serializing the test.
                    match q.offer(batch(p, round), Duration::from_millis(2)).unwrap() {
                        Admission::Admitted => admitted += 1,
                        Admission::Deferred { retry_after_ms } => {
                            assert!(retry_after_ms >= 1, "back-off hint must be usable");
                            deferred += 1;
                        }
                        Admission::Rejected => rejected += 1,
                    }
                }
                (admitted, deferred, rejected)
            })
        })
        .collect();

    let (mut admitted, mut deferred, mut rejected) = (0u64, 0u64, 0u64);
    for h in handles {
        let (a, d, r) = h.join().unwrap();
        admitted += a;
        deferred += d;
        rejected += r;
    }

    let offered = (PRODUCERS * ROUNDS) as u64;
    assert_eq!(admitted + deferred + rejected, offered, "client-side verdicts conserve");
    assert_eq!(rejected, 0, "no batch exceeds the budget and the queue never closed");
    assert!(admitted > 0, "the drain makes progress, so offers must land");

    let stats = queue.stats();
    assert_eq!(stats.offered_batches, offered);
    assert_eq!(stats.offered_samples, offered * BATCH as u64);
    assert_eq!(stats.admitted_batches, admitted, "server-side counters match the verdicts");
    assert_eq!(stats.deferred_batches, deferred);
    assert_eq!(stats.rejected_batches, rejected);
    assert_eq!(
        stats.admitted_samples + stats.deferred_samples + stats.rejected_samples,
        stats.offered_samples,
        "sample-level conservation"
    );
    assert_eq!(stats.silent_samples(), 0, "nothing evaporated without a verdict");

    // Every admitted sample reaches the pipeline: after close() drains, the
    // pipeline's own per-sample accounting must add up to exactly the
    // admitted count (no queue-level drops on the credit path).
    let mut queue = Arc::into_inner(queue).expect("all producers joined");
    queue.close();
    let pipe = queue.ingestor().stats();
    assert_eq!(
        pipe.accepted + pipe.dropped_late + pipe.dropped_unknown_link + pipe.dropped_non_finite,
        stats.admitted_samples,
        "pipeline saw exactly the admitted samples"
    );
    assert_eq!(pipe.dropped_queue_samples, 0, "the credit path never sheds");
    assert_eq!(queue.depth_samples(), 0, "close() drained the queue");
}

#[test]
fn shedding_producers_conserve_every_sample() {
    // Each producer applies every third batch and sheds the rest, the way a
    // radio bridge that must never block handles overload. Shed samples land
    // in the queue-drop counters; applied ones in the pipeline's verdicts.
    let ing = ingestor();
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let ing = Arc::clone(&ing);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let b = batch(p, round);
                    if round % 3 == 0 {
                        ing.apply_batch(&b);
                    } else {
                        ing.record_queue_drop(b.len());
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let offered = (PRODUCERS * ROUNDS) as u64;
    let shed = PRODUCERS as u64 * (ROUNDS as u64 - ROUNDS.div_ceil(3) as u64);
    let pipe = ing.stats();
    assert_eq!(pipe.dropped_queue_batches, shed, "every shed batch is counted");
    assert_eq!(pipe.dropped_queue_samples, shed * BATCH as u64);
    assert_eq!(
        pipe.accepted + pipe.dropped_late + pipe.dropped_unknown_link + pipe.dropped_non_finite,
        (offered - shed) * BATCH as u64,
        "every applied sample got a pipeline verdict"
    );
}
