//! Matrix Market (`.mtx`) reader/writer — the interchange format of the
//! University of Florida Sparse Matrix Collection the paper draws its suite
//! from. Supports the `coordinate` format with `real`, `integer`, and
//! `pattern` fields and the `general` / `symmetric` / `skew-symmetric`
//! symmetry modes, which covers the collection's SpMV-relevant corpus.

use sparseopt_core::coo::CooMatrix;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Symmetry mode of a coordinate Matrix Market file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MmSymmetry {
    /// Every stored entry stands for itself.
    General,
    /// Off-diagonal entries `(r, c)` imply `(c, r)` with the same value;
    /// only the lower triangle is stored.
    Symmetric,
    /// Off-diagonal entries `(r, c)` imply `(c, r)` with the *negated*
    /// value; the diagonal is implicitly zero and the format stores only
    /// the strictly lower triangle.
    SkewSymmetric,
}

impl MmSymmetry {
    /// The header token for this mode.
    pub fn token(self) -> &'static str {
        match self {
            MmSymmetry::General => "general",
            MmSymmetry::Symmetric => "symmetric",
            MmSymmetry::SkewSymmetric => "skew-symmetric",
        }
    }
}

/// Errors raised by the Matrix Market parser.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural/syntactic problem, with a human-readable description.
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(msg) => write!(f, "Matrix Market parse error: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// Most entries [`read_matrix_market`] reserves up front from the size line.
const MAX_PRESIZE: usize = 1 << 20;

/// Reads a Matrix Market coordinate matrix from any reader.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CooMatrix, MmError> {
    let mut lines = BufReader::new(reader).lines();

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    let header = lines.next().ok_or_else(|| parse_err("empty input"))??;
    let tokens: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .collect();
    if tokens.len() < 5 || !tokens[0].starts_with("%%matrixmarket") {
        return Err(parse_err(format!("bad header line: {header}")));
    }
    if tokens[1] != "matrix" || tokens[2] != "coordinate" {
        return Err(parse_err("only `matrix coordinate` objects are supported"));
    }
    let field = tokens[3].clone();
    if !matches!(field.as_str(), "real" | "integer" | "pattern") {
        return Err(parse_err(format!("unsupported field type: {field}")));
    }
    let symmetry = match tokens[4].as_str() {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        "skew-symmetric" => MmSymmetry::SkewSymmetric,
        other => return Err(parse_err(format!("unsupported symmetry: {other}"))),
    };

    // Size line (first non-comment line).
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(line);
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| parse_err(format!("bad size token: {t}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(parse_err("size line must be `nrows ncols nnz`"));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);

    // The header's `nnz` is untrusted: reserve at most what a valid file of
    // these dimensions could hold, capped, and let further entries grow the
    // vectors. A short file still fails the count check below.
    let presize = nnz.min(nrows.saturating_mul(ncols)).min(MAX_PRESIZE);
    let mut coo = CooMatrix::with_capacity(nrows, ncols, presize);
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| parse_err("missing row index"))?
            .parse()
            .map_err(|_| parse_err(format!("bad row index in: {t}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| parse_err("missing col index"))?
            .parse()
            .map_err(|_| parse_err(format!("bad col index in: {t}")))?;
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(parse_err(format!("entry ({r},{c}) out of 1-based bounds")));
        }
        let v: f64 = match field.as_str() {
            "pattern" => 1.0,
            _ => it
                .next()
                .ok_or_else(|| parse_err("missing value"))?
                .parse()
                .map_err(|_| parse_err(format!("bad value in: {t}")))?,
        };
        match symmetry {
            MmSymmetry::General => coo.push(r - 1, c - 1, v),
            MmSymmetry::Symmetric => {
                coo.push(r - 1, c - 1, v);
                if r != c {
                    coo.push(c - 1, r - 1, v);
                }
            }
            MmSymmetry::SkewSymmetric => {
                if r == c {
                    return Err(parse_err(format!(
                        "skew-symmetric entry on the diagonal at ({r},{c})"
                    )));
                }
                coo.push(r - 1, c - 1, v);
                coo.push(c - 1, r - 1, -v);
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {seen}")));
    }
    Ok(coo)
}

/// Writes a COO matrix in `general real` coordinate format.
pub fn write_matrix_market<W: Write>(coo: &CooMatrix, writer: W) -> Result<(), MmError> {
    write_matrix_market_with(coo, MmSymmetry::General, writer)
}

/// Writes a COO matrix in `real` coordinate format with an explicit
/// symmetry mode. `Symmetric` / `SkewSymmetric` store only the (strictly,
/// for skew) lower triangle after **verifying** the matrix actually has the
/// claimed structure — a mismatched pair or a nonzero diagonal under
/// `SkewSymmetric` is a `Parse` error, never silent data loss.
pub fn write_matrix_market_with<W: Write>(
    coo: &CooMatrix,
    symmetry: MmSymmetry,
    writer: W,
) -> Result<(), MmError> {
    let mut w = BufWriter::new(writer);

    // General mode streams the raw triplets (duplicates preserved), exactly
    // as the historical writer did — only the symmetric modes pay for a
    // normalized copy, which their structural verification needs anyway.
    if symmetry == MmSymmetry::General {
        writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
        writeln!(w, "% generated by sparseopt")?;
        writeln!(w, "{} {} {}", coo.nrows(), coo.ncols(), coo.nnz())?;
        for (r, c, v) in coo.iter() {
            writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?;
        }
        w.flush()?;
        return Ok(());
    }

    if coo.nrows() != coo.ncols() {
        return Err(parse_err(format!(
            "{} output needs a square matrix",
            symmetry.token()
        )));
    }
    // Deduplicate so structural verification sees one value per coordinate,
    // matching what a reader reconstructs.
    let entries: Vec<(usize, usize, f64)> = {
        let mut sorted = coo.clone();
        sorted.sort_and_dedup();
        sorted.iter().collect()
    };
    // `sort_and_dedup` leaves the triplets in (row, col) order — the
    // invariant the binary search below relies on.
    debug_assert!(entries
        .windows(2)
        .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    let value_at = |r: usize, c: usize| -> Option<f64> {
        entries
            .binary_search_by(|&(er, ec, _)| (er, ec).cmp(&(r, c)))
            .ok()
            .map(|i| entries[i].2)
    };
    for &(r, c, v) in &entries {
        if r == c {
            if symmetry == MmSymmetry::SkewSymmetric && v != 0.0 {
                return Err(parse_err(format!(
                    "skew-symmetric matrix has nonzero diagonal at ({r},{r})"
                )));
            }
            continue;
        }
        let want = match symmetry {
            MmSymmetry::Symmetric => v,
            _ => -v,
        };
        if value_at(c, r) != Some(want) {
            return Err(parse_err(format!(
                "matrix is not {}: entry ({r},{c}) has no matching ({c},{r})",
                symmetry.token()
            )));
        }
    }

    let stored: Vec<&(usize, usize, f64)> = match symmetry {
        MmSymmetry::Symmetric => entries.iter().filter(|&&(r, c, _)| r >= c).collect(),
        _ => entries.iter().filter(|&&(r, c, _)| r > c).collect(),
    };

    writeln!(
        w,
        "%%MatrixMarket matrix coordinate real {}",
        symmetry.token()
    )?;
    writeln!(w, "% generated by sparseopt")?;
    writeln!(w, "{} {} {}", coo.nrows(), coo.ncols(), stored.len())?;
    for &&(r, c, v) in &stored {
        writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?;
    }
    w.flush()?;
    Ok(())
}

/// Convenience: reads a `.mtx` file from disk.
pub fn read_matrix_market_file(path: &std::path::Path) -> Result<CooMatrix, MmError> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Convenience: writes a `.mtx` file to disk.
pub fn write_matrix_market_file(coo: &CooMatrix, path: &std::path::Path) -> Result<(), MmError> {
    write_matrix_market(coo, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_general_real() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   % a comment\n\
                   3 3 2\n\
                   1 1 1.5\n\
                   3 2 -2.0\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (3, 3, 2));
        let t: Vec<_> = m.iter().collect();
        assert_eq!(t, vec![(0, 0, 1.5), (2, 1, -2.0)]);
    }

    #[test]
    fn expands_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n\
                   2 2 2\n\
                   1 1 4.0\n\
                   2 1 1.0\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn pattern_field_gets_unit_values() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n\
                   2 2 1\n\
                   2 2\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.iter().next(), Some((1, 1, 1.0)));
    }

    #[test]
    fn round_trip_through_writer() {
        let mut coo = CooMatrix::new(4, 5);
        coo.push(0, 4, 3.25);
        coo.push(3, 0, -1.0e-7);
        let mut buf = Vec::new();
        write_matrix_market(&coo, &mut buf).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(back.nrows(), 4);
        assert_eq!(back.ncols(), 5);
        let a: Vec<_> = coo.iter().collect();
        let b: Vec<_> = back.iter().collect();
        for ((r1, c1, v1), (r2, c2, v2)) in a.iter().zip(&b) {
            assert_eq!((r1, c1), (r2, c2));
            assert!((v1 - v2).abs() < 1e-15 * v1.abs().max(1e-300));
        }
    }

    #[test]
    fn expands_skew_symmetric_with_negation() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                   3 3 2\n\
                   2 1 4.0\n\
                   3 2 -1.5\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        let mut got: Vec<_> = m.iter().collect();
        got.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(
            got,
            vec![(0, 1, -4.0), (1, 0, 4.0), (1, 2, -(-1.5)), (2, 1, -1.5)]
        );
    }

    #[test]
    fn skew_symmetric_rejects_diagonal_entries() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                   2 2 1\n\
                   2 2 3.0\n";
        let err = read_matrix_market(src.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("diagonal"), "{err}");
    }

    #[test]
    fn skew_symmetric_round_trip_through_writer() {
        // Build A = -Aᵀ with a zero diagonal, write in skew-symmetric mode
        // (strictly lower triangle only), and read it back expanded.
        let mut coo = CooMatrix::new(4, 4);
        for (r, c, v) in [(1usize, 0usize, 2.5f64), (3, 1, -0.75), (2, 0, 1.0e-3)] {
            coo.push(r, c, v);
            coo.push(c, r, -v);
        }
        let mut buf = Vec::new();
        write_matrix_market_with(&coo, MmSymmetry::SkewSymmetric, &mut buf).unwrap();
        let header = String::from_utf8_lossy(&buf);
        assert!(header.starts_with("%%MatrixMarket matrix coordinate real skew-symmetric"));
        // Only the 3 strictly-lower entries are stored.
        assert!(header.contains("4 4 3"));

        let mut back = read_matrix_market(buf.as_slice()).unwrap();
        back.sort_and_dedup();
        let mut want = coo.clone();
        want.sort_and_dedup();
        assert_eq!(back.nnz(), want.nnz());
        for ((r1, c1, v1), (r2, c2, v2)) in back.iter().zip(want.iter()) {
            assert_eq!((r1, c1), (r2, c2));
            assert!((v1 - v2).abs() < 1e-15 * v2.abs().max(1e-300));
        }
    }

    #[test]
    fn writer_verifies_claimed_symmetry() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0); // missing the (1,0) partner
        let mut buf = Vec::new();
        let err = write_matrix_market_with(&coo, MmSymmetry::SkewSymmetric, &mut buf).unwrap_err();
        assert!(err.to_string().contains("not skew-symmetric"), "{err}");

        let mut diag = CooMatrix::new(2, 2);
        diag.push(0, 0, 1.0);
        let err = write_matrix_market_with(&diag, MmSymmetry::SkewSymmetric, &mut Vec::new())
            .unwrap_err();
        assert!(err.to_string().contains("diagonal"), "{err}");
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market("not a header\n1 1 0\n".as_bytes()).is_err());
        assert!(
            read_matrix_market("%%MatrixMarket matrix array real general\n1 1 0\n".as_bytes())
                .is_err()
        );
    }

    #[test]
    fn rejects_out_of_bounds_and_count_mismatch() {
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(oob.as_bytes()).is_err());
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market(short.as_bytes()).is_err());
    }

    #[test]
    fn huge_header_nnz_is_a_count_error_not_an_allocation() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   1 1 18446744073709551615\n\
                   1 1 1.0\n";
        match read_matrix_market(src.as_bytes()) {
            Err(MmError::Parse(msg)) => assert!(msg.contains("expected"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}
