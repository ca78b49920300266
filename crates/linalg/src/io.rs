//! Plain-text matrix I/O (CSV) for interoperating with plotting tools.
//!
//! The figure binaries print tables to stdout; users who want to re-plot the
//! curves (e.g. with matplotlib or gnuplot) can dump any matrix — fingerprint
//! databases, reconstructions, CDF tables — as CSV and read it back.

use crate::{LinalgError, Matrix, Result};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Writes the matrix as CSV (one row per line, `,`-separated, full `f64`
/// round-trip precision).
pub fn write_csv(matrix: &Matrix, path: &Path) -> Result<()> {
    let file = std::fs::File::create(path).map_err(|e| LinalgError::InvalidArgument {
        op: "io::write_csv",
        reason: format!("cannot create {}: {e}", path.display()),
    })?;
    let mut w = BufWriter::new(file);
    for i in 0..matrix.rows() {
        let line = matrix
            .row(i)
            .iter()
            .map(|v| {
                // RFC-compatible shortest round-trip formatting.
                let mut s = format!("{v}");
                if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN")
                {
                    s.push_str(".0");
                }
                s
            })
            .collect::<Vec<_>>()
            .join(",");
        writeln!(w, "{line}").map_err(|e| LinalgError::InvalidArgument {
            op: "io::write_csv",
            reason: format!("write failed: {e}"),
        })?;
    }
    w.flush().map_err(|e| LinalgError::InvalidArgument {
        op: "io::write_csv",
        reason: format!("flush failed: {e}"),
    })
}

/// Reads a matrix from CSV written by [`write_csv`] (or any rectangular
/// numeric CSV without a header).
pub fn read_csv(path: &Path) -> Result<Matrix> {
    let file = std::fs::File::open(path).map_err(|e| LinalgError::InvalidArgument {
        op: "io::read_csv",
        reason: format!("cannot open {}: {e}", path.display()),
    })?;
    let reader = BufReader::new(file);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| LinalgError::InvalidArgument {
            op: "io::read_csv",
            reason: format!("read failed at line {}: {e}", lineno + 1),
        })?;
        if line.trim().is_empty() {
            continue;
        }
        let row: Vec<f64> = line
            .split(',')
            .map(|cell| {
                cell.trim().parse::<f64>().map_err(|e| LinalgError::InvalidArgument {
                    op: "io::read_csv",
                    reason: format!("bad number {cell:?} at line {}: {e}", lineno + 1),
                })
            })
            .collect::<Result<_>>()?;
        if let Some(first) = rows.first() {
            if row.len() != first.len() {
                return Err(LinalgError::DimensionMismatch {
                    op: "io::read_csv",
                    lhs: (rows.len(), first.len()),
                    rhs: (lineno + 1, row.len()),
                });
            }
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(LinalgError::EmptyInput { op: "io::read_csv" });
    }
    let cols = rows[0].len();
    let data: Vec<f64> = rows.into_iter().flatten().collect();
    let rows_n = data.len() / cols;
    Matrix::from_vec(rows_n, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("taf_linalg_io_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_preserves_values() {
        let m =
            Matrix::from_rows(&[&[1.5, -2.25, 0.0], &[1e-12, 7.0, -55.123456789012345]]).unwrap();
        let path = temp_path("round_trip");
        write_csv(&m, &path).unwrap();
        let back = read_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(back.approx_eq(&m, 0.0), "CSV round trip must be exact:\n{back}\nvs\n{m}");
    }

    #[test]
    fn integers_get_decimal_point() {
        let m = Matrix::from_rows(&[&[1.0, -3.0]]).unwrap();
        let path = temp_path("ints");
        write_csv(&m, &path).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(contents.trim(), "1.0,-3.0");
    }

    #[test]
    fn read_rejects_ragged_rows() {
        let path = temp_path("ragged");
        std::fs::write(&path, "1,2,3\n4,5\n").unwrap();
        let r = read_csv(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(r, Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn read_rejects_garbage_and_empty() {
        let path = temp_path("garbage");
        std::fs::write(&path, "1,banana\n").unwrap();
        let r = read_csv(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(r, Err(LinalgError::InvalidArgument { .. })));

        let path = temp_path("empty");
        std::fs::write(&path, "\n\n").unwrap();
        let r = read_csv(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(r, Err(LinalgError::EmptyInput { .. })));
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(read_csv(Path::new("/nonexistent/nope.csv")).is_err());
    }

    #[test]
    fn non_finite_values_round_trip() {
        let m = Matrix::from_rows(&[&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]]).unwrap();
        let path = temp_path("non_finite");
        write_csv(&m, &path).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        let back = read_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(contents.trim(), "NaN,inf,-inf");
        assert!(back[(0, 0)].is_nan());
        assert_eq!(back[(0, 1)], f64::INFINITY);
        assert_eq!(back[(0, 2)], f64::NEG_INFINITY);
    }

    #[test]
    fn extreme_magnitudes_round_trip() {
        // `{}` writes 1e300 as 301 digits without a decimal point.
        let m = Matrix::from_rows(&[&[1e300, -1e300, 5e-324, f64::MAX]]).unwrap();
        let path = temp_path("extreme");
        write_csv(&m, &path).unwrap();
        let back = read_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn skips_blank_lines() {
        let path = temp_path("blanks");
        std::fs::write(&path, "1,2\n\n3,4\n").unwrap();
        let m = read_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(1, 0)], 3.0);
    }
}
