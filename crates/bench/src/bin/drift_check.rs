//! Verifies the paper's in-text environment numbers against the simulator:
//!
//! * "the RSS values change 2.5 dBm and 6 dBm respectively after 5 and 45 days"
//! * "the noise is usually within 1~4 dBm"
//!
//! Usage: `cargo run --release -p taf-bench --bin drift_check [seeds]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use taf_bench::report::compare_row;
use taf_rfsim::noise::NoiseConfig;
use taf_rfsim::{World, WorldConfig};

fn main() {
    let num_seeds: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(50);
    let seeds: Vec<u64> = (1..=num_seeds).collect();

    eprintln!("drift_check: {} world realizations ...", seeds.len());

    // Mean |ΔRSS| between day 0 and each horizon: link-level (empty-room RSS,
    // what the paper's in-text anchors describe) and entry-level (fingerprint
    // entries, which additionally age through the per-entry components).
    let horizons = [3.0, 5.0, 15.0, 45.0, 90.0];
    let per_seed: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let w = World::new(WorldConfig::paper_default(), seed);
            let e0 = w.empty_truth(0.0);
            let x0 = w.fingerprint_truth(0.0);
            horizons
                .map(|t| {
                    let et = w.empty_truth(t);
                    let link: f64 = e0.iter().zip(&et).map(|(a, b)| (a - b).abs()).sum::<f64>()
                        / e0.len() as f64;
                    let xt = w.fingerprint_truth(t);
                    let entry = x0.sub(&xt).expect("same shape").map(f64::abs).mean();
                    (link, entry)
                })
                .to_vec()
        })
        .collect();
    let mut link_means = vec![0.0; horizons.len()];
    let mut entry_means = vec![0.0; horizons.len()];
    for s in &per_seed {
        for (k, (l, e)) in s.iter().enumerate() {
            link_means[k] += l / per_seed.len() as f64;
            entry_means[k] += e / per_seed.len() as f64;
        }
    }

    println!("\n== In-text drift magnitudes ==");
    println!("{:>10} {:>22} {:>24}", "days", "link |ΔRSS| [dBm]", "entry |ΔRSS| [dBm]");
    for ((t, l), e) in horizons.iter().zip(&link_means).zip(&entry_means) {
        println!("{t:>10.0} {l:>22.2} {e:>24.2}");
    }
    println!("\nPaper vs measured (link-level, the paper's anchors):");
    println!("{}", compare_row("5 days", 2.5, link_means[1]));
    println!("{}", compare_row("45 days", 6.0, link_means[3]));

    // Per-sample measurement-noise spread under the default model.
    let cfg = NoiseConfig::default();
    let mut rng = StdRng::seed_from_u64(7);
    let n = 100_000;
    let samples: Vec<f64> = (0..n).map(|_| cfg.observe(-50.0, &mut rng)).collect();
    let mean: f64 = samples.iter().sum::<f64>() / n as f64;
    let sd = (samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64).sqrt();
    println!("\n== In-text noise band ==");
    println!("per-sample RSS noise std: {sd:.2} dBm (paper: 'usually within 1~4 dBm')");
    assert!((1.0..=4.0).contains(&sd), "noise model fell outside the paper's band");
}
