//! Shed-and-count conservation under concurrent producers.
//!
//! Producers that shed instead of waiting record each shed batch with
//! [`Ingestor::record_queue_drop`]; that accounting must conserve samples:
//! nothing is lost silently. The daemon's own admission gate, which waits
//! instead of shedding, is checked for the same property in
//! `tafloc-serve`'s `shard` tests.

use std::sync::Arc;
use tafloc_ingest::{IngestConfig, Ingestor, LinkSample};

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
