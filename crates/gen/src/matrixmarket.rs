//! MatrixMarket coordinate-format I/O.
//!
//! The paper motivates its sparse-ratio assumptions with the
//! Harwell–Boeing Sparse Matrix Collection; its successor ecosystem
//! distributes matrices in the MatrixMarket exchange format, which this
//! module reads and writes (`matrix coordinate real general`, 1-based
//! indices, `%` comments).

use sparsedist_core::compress::Coo;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Error from parsing or writing a MatrixMarket stream.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem in the text, with a line number (1-based).
    Parse {
        /// 1-based line number (the last line for problems only the end of
        /// the document reveals).
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// Header describes a format this reader does not support.
    Unsupported(String),
}

impl fmt::Display for MmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "i/o error: {e}"),
            MmError::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
            MmError::Unsupported(what) => write!(f, "unsupported MatrixMarket variant: {what}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(line: usize, reason: impl Into<String>) -> MmError {
    MmError::Parse {
        line,
        reason: reason.into(),
    }
}

/// Parse a MatrixMarket `coordinate real general` document.
///
/// `pattern` matrices get value 1.0 per entry; `symmetric` matrices are
/// expanded (the mirrored entry is materialised). `integer` values are
/// accepted as reals.
pub fn parse(text: &str) -> Result<Coo, MmError> {
    let last_line = || text.lines().count();
    let mut lines = text.lines().enumerate();

    let (_, header) = lines.next().ok_or_else(|| parse_err(1, "empty document"))?;
    let h: Vec<&str> = header.split_whitespace().collect();
    if h.len() != 5 || !h[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(parse_err(
            1,
            "expected '%%MatrixMarket matrix coordinate <field> <symmetry>'",
        ));
    }
    if !h[1].eq_ignore_ascii_case("matrix") || !h[2].eq_ignore_ascii_case("coordinate") {
        return Err(MmError::Unsupported(format!("{} {}", h[1], h[2])));
    }
    let field = h[3].to_ascii_lowercase();
    if !matches!(field.as_str(), "real" | "integer" | "pattern") {
        return Err(MmError::Unsupported(format!("field '{field}'")));
    }
    let symmetry = h[4].to_ascii_lowercase();
    if !matches!(symmetry.as_str(), "general" | "symmetric") {
        return Err(MmError::Unsupported(format!("symmetry '{symmetry}'")));
    }

    // Size line: first non-comment line.
    let mut size = None;
    for (i, line) in lines.by_ref() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(parse_err(i + 1, "size line must be 'rows cols nnz'"));
        }
        let rows: usize = parts[0]
            .parse()
            .map_err(|_| parse_err(i + 1, "bad row count"))?;
        let cols: usize = parts[1]
            .parse()
            .map_err(|_| parse_err(i + 1, "bad col count"))?;
        let nnz: usize = parts[2]
            .parse()
            .map_err(|_| parse_err(i + 1, "bad nnz count"))?;
        size = Some((rows, cols, nnz));
        break;
    }
    let (rows, cols, nnz) = size.ok_or_else(|| parse_err(last_line(), "missing size line"))?;

    let mut coo = Coo::new(rows, cols);
    let mut seen = 0usize;
    for (i, line) in lines {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        let want = if field == "pattern" { 2 } else { 3 };
        if parts.len() != want {
            return Err(parse_err(i + 1, format!("entry must have {want} fields")));
        }
        let r: usize = parts[0]
            .parse()
            .map_err(|_| parse_err(i + 1, "bad row index"))?;
        let c: usize = parts[1]
            .parse()
            .map_err(|_| parse_err(i + 1, "bad col index"))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(parse_err(
                i + 1,
                format!("index ({r},{c}) out of 1..={rows} x 1..={cols}"),
            ));
        }
        let v: f64 = if field == "pattern" {
            1.0
        } else {
            parts[2]
                .parse()
                .map_err(|_| parse_err(i + 1, "bad value"))?
        };
        coo.push(r - 1, c - 1, v);
        if symmetry == "symmetric" && r != c {
            coo.push(c - 1, r - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(
            last_line(),
            format!("header promised {nnz} entries, found {seen}"),
        ));
    }
    Ok(coo)
}

/// Render a [`Coo`] as a `matrix coordinate real general` document.
pub fn render(coo: &Coo) -> String {
    let mut out = String::new();
    out.push_str("%%MatrixMarket matrix coordinate real general\n");
    out.push_str("% written by sparsedist-gen\n");
    out.push_str(&format!("{} {} {}\n", coo.rows(), coo.cols(), coo.nnz()));
    for &(r, c, v) in coo.entries() {
        out.push_str(&format!("{} {} {}\n", r + 1, c + 1, v));
    }
    out
}

/// Read a MatrixMarket file.
pub fn read_file(path: impl AsRef<Path>) -> Result<Coo, MmError> {
    parse(&fs::read_to_string(path)?)
}

/// Write a MatrixMarket file.
pub fn write_file(path: impl AsRef<Path>, coo: &Coo) -> Result<(), MmError> {
    let mut f = fs::File::create(path)?;
    f.write_all(render(coo).as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsedist_core::dense::paper_array_a;

    #[test]
    fn round_trip_paper_array() {
        let coo = Coo::from_dense(&paper_array_a());
        let text = render(&coo);
        let back = parse(&text).unwrap();
        assert_eq!(back.to_dense(), paper_array_a());
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    \n\
                    2 3 2\n\
                    % another\n\
                    1 1 1.5\n\
                    2 3 -2.5\n";
        let coo = parse(text).unwrap();
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.to_dense().get(1, 2), -2.5);
    }

    #[test]
    fn pattern_matrices_get_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let coo = parse(text).unwrap();
        assert_eq!(coo.to_dense().get(0, 0), 1.0);
        assert_eq!(coo.to_dense().get(1, 1), 1.0);
    }

    #[test]
    fn symmetric_matrices_are_expanded() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 5\n3 1 7\n";
        let coo = parse(text).unwrap();
        let d = coo.to_dense();
        assert_eq!(d.get(0, 0), 5.0);
        assert_eq!(d.get(2, 0), 7.0);
        assert_eq!(d.get(0, 2), 7.0);
    }

    #[test]
    fn error_on_bad_header() {
        assert!(matches!(
            parse("garbage\n"),
            Err(MmError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse("%%MatrixMarket matrix array real general\n"),
            Err(MmError::Unsupported(_))
        ));
        assert!(matches!(
            parse("%%MatrixMarket matrix coordinate complex general\n2 2 0\n"),
            Err(MmError::Unsupported(_))
        ));
    }

    #[test]
    fn error_on_out_of_bounds_entry() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("out of"), "{err}");
    }

    #[test]
    fn error_on_count_mismatch() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1.0\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("promised 5"), "{err}");
    }

    #[test]
    fn count_mismatch_names_the_last_line() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1.0\n% end\n";
        assert_eq!(
            parse(text).unwrap_err().to_string(),
            "parse error on line 4: header promised 5 entries, found 1"
        );
    }

    #[test]
    fn missing_size_line_names_the_last_line() {
        let text = "%%MatrixMarket matrix coordinate real general\n% only comments\n";
        assert_eq!(
            parse(text).unwrap_err().to_string(),
            "parse error on line 2: missing size line"
        );
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sparsedist_mm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.mtx");
        let coo = Coo::from_dense(&paper_array_a());
        write_file(&path, &coo).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.to_dense(), paper_array_a());
        std::fs::remove_dir_all(&dir).ok();
    }
}
