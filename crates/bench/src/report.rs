//! Plain-text "figure" output: CDF tables and summary rows in the shape the
//! paper reports them, so a run of a figure binary can be diffed against the
//! paper's curves by eye (and by the EXPERIMENTS.md bookkeeping).

use taf_linalg::stats::Ecdf;

/// Prints a set of labeled CDFs as one table: first column the x-grid, one
/// column per series — the textual form of a CDF figure.
pub fn print_cdf_table(
    title: &str,
    x_label: &str,
    x_max: f64,
    points: usize,
    series: &[(String, Ecdf)],
) {
    println!("\n== {title} ==");
    print!("{x_label:>12}");
    for (name, _) in series {
        print!(" {name:>16}");
    }
    println!();
    for k in 0..points {
        let x = x_max * k as f64 / (points.max(2) - 1) as f64;
        print!("{x:>12.2}");
        for (_, e) in series {
            print!(" {:>16.3}", e.eval(x));
        }
        println!();
    }
}

/// Prints per-series summary rows (mean / median / p90).
pub fn print_summaries(series: &[(String, Ecdf)]) {
    println!("{:>20} {:>10} {:>10} {:>10} {:>8}", "series", "mean", "median", "p90", "n");
    for (name, e) in series {
        println!(
            "{:>20} {:>10.3} {:>10.3} {:>10.3} {:>8}",
            name,
            e.mean(),
            e.median(),
            e.quantile(0.9),
            e.len()
        );
    }
}

/// Formats a paper-vs-measured comparison row.
pub fn compare_row(label: &str, paper: f64, measured: f64) -> String {
    let ratio = if paper != 0.0 { measured / paper } else { f64::NAN };
    format!("{label:>24}: paper {paper:>8.2}  measured {measured:>8.2}  ratio {ratio:>6.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_row_formats() {
        let row = compare_row("3 days", 2.7, 2.9);
        assert!(row.contains("2.70"));
        assert!(row.contains("2.90"));
        assert!(row.contains("1.07"));
    }

    #[test]
    fn compare_row_without_a_paper_value_has_no_ratio() {
        let row = compare_row("baseline", 0.0, 1.5);
        assert!(row.starts_with(&format!("{:>24}: paper", "baseline")), "{row}");
        assert!(row.ends_with("ratio    NaN"), "{row}");
    }

    #[test]
    fn print_helpers_do_not_panic() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0]).unwrap();
        print_cdf_table("t", "x", 3.0, 4, &[("a".into(), e.clone())]);
        print_summaries(&[("a".into(), e)]);
    }
}
