//! End-to-end, layer-attributed benchmark of the TafLoc serving loop.
//!
//! ```text
//! loopbench --workload <locate|capture|refresh> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every run replays a fixed, seeded sequence of ops (its length scales with
//! `--seconds`) against an in-process daemon over loopback TCP, checks every
//! reply, and prints as its last line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1` (a
//! second, traced pass over the same ops). See README.md.

mod capture;
mod host;
mod inputs;
mod kernel;
mod locate;
mod refresh;
mod replay;
mod report;
mod rig;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;

use report::Pass;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Ops (and reads) whose spans the trace file keeps; the metrics use all.
const TRACE_FILE_OPS: u32 = 2000;

const USAGE: &str =
    "usage: loopbench --workload <locate|capture|refresh> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !matches!(parsed.workload.as_str(), "locate" | "capture" | "refresh") {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    Ok(parsed)
}

/// A workload's generated inputs.
enum Workload {
    Locate(Box<locate::Inputs>),
    Capture(Box<capture::Inputs>),
    Refresh(Box<refresh::Inputs>),
}

impl Workload {
    /// Inputs for `seconds` of nominal work: the op count is fixed by the
    /// flags, never by how fast this host happens to run.
    fn generate(name: &str, seed: u64, seconds: f64) -> Workload {
        let ops = |per_s: f64| ((seconds * per_s).round() as usize).max(report::SEGMENTS);
        match name {
            "locate" => Workload::Locate(Box::new(locate::inputs(seed, ops(locate::PAIRS_PER_S)))),
            "capture" => {
                Workload::Capture(Box::new(capture::inputs(seed, ops(capture::ROUNDS_PER_S))))
            }
            _ => Workload::Refresh(Box::new(refresh::inputs(seed, ops(refresh::CYCLES_PER_S)))),
        }
    }

    fn pass(&self, traced: bool, extra_setups: bool) -> Pass {
        match self {
            Workload::Locate(i) => locate::pass(i, traced, extra_setups),
            Workload::Capture(i) => capture::pass(i, traced, extra_setups),
            Workload::Refresh(i) => refresh::pass(i, traced, extra_setups),
        }
    }

    /// Round trips whose time the codec and handler replays do not explain
    /// is the transport: the v1 op on `locate`, the reads elsewhere.
    fn transport_span(&self) -> &'static str {
        match self {
            Workload::Locate(_) => "op",
            _ => "read",
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = host::nproc();
    let placement = rig::pin_main();
    let workload = Workload::generate(&args.workload, args.seed, args.seconds);
    std::fs::create_dir_all(rig::OUT_DIR).expect("output directory can be created");
    println!(
        "host {{\"nproc\":{},\"cpus\":[{},{}],\"data_fs\":\"{}\",\"kernel\":\"{}\",\"rustc\":\"{}\",\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        nproc,
        placement.main,
        placement.reader,
        host::fs_type(std::path::Path::new(rig::OUT_DIR)),
        host::kernel(),
        host::rustc_version(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let steal0 = host::steal_ticks();
    let plain = workload.pass(false, !args.trace);
    let rss_kb = host::peak_rss_kb();
    let mut tally = plain.tally.clone();
    let line = if !args.trace {
        let values = report::end_to_end(&plain, rss_kb);
        for ((name, unit), v) in report::END_TO_END.iter().zip(&values) {
            println!("{:<14} {v:>14.4} {unit}", name);
        }
        let correct = tally.failed == 0 && values.iter().all(|v| v.is_finite() && *v > 0.0);
        report::result_json(correct, &tally, report::END_TO_END, &values)
    } else {
        let traced = workload.pass(true, false);
        tally.merge(traced.tally.clone());
        // Same seed, same ops: the exact counters must not notice the tracing.
        if traced.counts != plain.counts || traced.loc_error_m != plain.loc_error_m {
            tally.fail(format!(
                "traced pass diverged: counts {:?} vs {:?}, loc error {} vs {}",
                traced.counts, plain.counts, traced.loc_error_m, plain.loc_error_m
            ));
        }
        let values = report::per_layer(&plain, &traced, workload.transport_span());
        for ((name, unit), v) in report::PER_LAYER.iter().zip(&values) {
            println!("{:<26} {v:>14.4} {unit}", name);
        }
        let path = std::path::Path::new(rig::OUT_DIR).join(format!("trace-{}.tsv", args.workload));
        let spans = traced.tracer.as_ref().expect("traced pass has spans");
        spans.write_tsv(&path, TRACE_FILE_OPS).expect("trace file can be written");
        println!(
            "spans: {} recorded; those of the first {TRACE_FILE_OPS} ops written to {}",
            spans.spans().len(),
            path.display()
        );
        let correct = tally.failed == 0 && values.iter().all(|v| v.is_finite());
        report::result_json(correct, &tally, report::PER_LAYER, &values)
    };
    for note in &tally.notes {
        eprintln!("failure: {note}");
    }
    let steal1 = host::steal_ticks();
    println!(
        "host {{\"steal_frac\":{:.4}}}",
        stats::ratio((steal1.0 - steal0.0) as f64, (steal1.1 - steal0.1) as f64)
    );
    rig::remove_scratch();
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload refresh --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a, Args { workload: "refresh".into(), seed: 7, seconds: 10.0, trace: true });
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload locate --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload locate --trace 2").is_err());
        assert!(args("--workload locate --seed").is_err());
    }
}
