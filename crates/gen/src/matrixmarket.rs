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
///
/// Fields split where [`str::split_whitespace`] splits and lines end at
/// `\n`, as in [`str::lines`]. Values must be finite: `NaN`, `inf` and
/// literals that overflow `f64` are parse errors on their line. The
/// entry storage is reserved once, from the size line's count but never
/// past one entry per 4 bytes of text.
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
    for (i, line) in lines {
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
        size = Some((i, rows, cols, nnz));
        break;
    }
    let (size_line, rows, cols, nnz) =
        size.ok_or_else(|| parse_err(last_line(), "missing size line"))?;

    let pattern = field == "pattern";
    let symmetric = symmetry == "symmetric";
    let want = if pattern { 2 } else { 3 };
    // An entry line takes at least 4 bytes ("1 1\n"), so the text, not the
    // size line, bounds the reservation.
    let cap = nnz.min(text.len() / 4);
    let mut entries = Vec::with_capacity(if symmetric { 2 * cap } else { cap });
    let mut cur = Cursor { text, pos: 0 };
    for _ in 0..=size_line {
        cur.skip_line();
    }
    let mut line = size_line + 1;
    let mut seen = 0usize;
    while cur.pos < text.len() {
        line += 1;
        let mut tok = [""; 3];
        let mut n = 0;
        while let Some(t) = cur.field() {
            if n == 0 && t.starts_with('%') {
                cur.skip_line();
                break;
            }
            if n == want {
                n += 1;
                break;
            }
            tok[n] = t;
            n += 1;
        }
        if n == 0 {
            continue;
        }
        if n != want {
            return Err(parse_err(line, format!("entry must have {want} fields")));
        }
        let r: usize = tok[0]
            .parse()
            .map_err(|_| parse_err(line, "bad row index"))?;
        let c: usize = tok[1]
            .parse()
            .map_err(|_| parse_err(line, "bad col index"))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(parse_err(
                line,
                format!("index ({r},{c}) out of 1..={rows} x 1..={cols}"),
            ));
        }
        let v: f64 = if pattern {
            1.0
        } else {
            let v: f64 = tok[2].parse().map_err(|_| parse_err(line, "bad value"))?;
            if !v.is_finite() {
                return Err(parse_err(line, "value is not finite"));
            }
            v
        };
        entries.push((r - 1, c - 1, v));
        if symmetric && r != c {
            entries.push((c - 1, r - 1, v));
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(
            last_line(),
            format!("header promised {nnz} entries, found {seen}"),
        ));
    }
    Ok(Coo::from_entries(rows, cols, entries))
}

/// A byte cursor over a document. `\n` ends a line, as in [`str::lines`];
/// within a line, fields split exactly where [`str::split_whitespace`]
/// splits.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// The next field of the current line, or `None` once the line ends
    /// (its `\n` is consumed).
    fn field(&mut self) -> Option<&'a str> {
        loop {
            if self.text.as_bytes().get(self.pos) == Some(&b'\n') {
                self.pos += 1;
                return None;
            }
            match self.peek()? {
                (true, len) => self.pos += len,
                (false, _) => break,
            }
        }
        let start = self.pos;
        while let Some((false, len)) = self.peek() {
            self.pos += len;
        }
        Some(&self.text[start..self.pos])
    }

    /// Skip the rest of the current line, its `\n` included.
    fn skip_line(&mut self) {
        self.pos = match self.text[self.pos..].find('\n') {
            Some(k) => self.pos + k + 1,
            None => self.text.len(),
        };
    }

    /// Whether the char at the cursor is whitespace, and its length in
    /// bytes; `None` at the end of the text. ASCII is classified inline as
    /// [`char::is_whitespace`] does: `\t` through `\r`, vertical tab
    /// included, and space. Any other lead byte decodes one `char`.
    fn peek(&self) -> Option<(bool, usize)> {
        Some(match *self.text.as_bytes().get(self.pos)? {
            b'\t'..=b'\r' | b' ' => (true, 1),
            b if b.is_ascii() => (false, 1),
            _ => self.peek_wide(),
        })
    }

    #[cold]
    fn peek_wide(&self) -> (bool, usize) {
        self.text[self.pos..]
            .chars()
            .next()
            .map_or((false, 1), |c| (c.is_whitespace(), c.len_utf8()))
    }
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

    /// Exact results for the entry section's edge cases: every whitespace
    /// `split_whitespace` splits on, comments between entries, signed
    /// indices, each field and symmetry, and each per-line error with its
    /// precedence and line number.
    #[test]
    fn entry_section_corpus_is_pinned() {
        const REAL: &str = "%%MatrixMarket matrix coordinate real general\n";
        const PATTERN: &str = "%%MatrixMarket matrix coordinate pattern general\n";
        type Expect = Result<(usize, usize, Vec<(usize, usize, f64)>), &'static str>;
        let cases: Vec<(String, Expect)> = vec![
            (
                format!("{REAL}2 2 2\n1\t1\t1.5\n2\t2 2.5\t\n"),
                Ok((2, 2, vec![(0, 0, 1.5), (1, 1, 2.5)])),
            ),
            (
                format!("{REAL}2 2 1\n2\x0B1\x0B-3\x0B\n"),
                Ok((2, 2, vec![(1, 0, -3.0)])),
            ),
            (
                format!("{REAL}2 2 2\n1\r2\r0.5\r\n2 1 4\r"),
                Ok((2, 2, vec![(0, 1, 0.5), (1, 0, 4.0)])),
            ),
            (
                "%%MatrixMarket matrix coordinate real general\r\n% c\r\n2 2 1\r\n1 2 7\r\n"
                    .to_string(),
                Ok((2, 2, vec![(0, 1, 7.0)])),
            ),
            (
                format!("{REAL}2 2 1\n\u{A0}1\u{A0}2\u{A0}8\u{A0}\n"),
                Ok((2, 2, vec![(0, 1, 8.0)])),
            ),
            (
                format!("{REAL}2 2 1\n2\u{3000}2\u{3000}1e-3\u{3000}\n"),
                Ok((2, 2, vec![(1, 1, 1e-3)])),
            ),
            (
                format!("{REAL}3 3 2\n1 1 1\n% between\n\n \t\n  % indented\n\u{A0}%nbsp\n3 3 3\n% end\n"),
                Ok((3, 3, vec![(0, 0, 1.0), (2, 2, 3.0)])),
            ),
            (
                format!("{REAL}3 3 1\n+3 +1 +2.5\n"),
                Ok((3, 3, vec![(2, 0, 2.5)])),
            ),
            (
                format!("{PATTERN}2 3 2\n1 3\n2 1\n"),
                Ok((2, 3, vec![(0, 2, 1.0), (1, 0, 1.0)])),
            ),
            (
                "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 5\n3 1 7\n"
                    .to_string(),
                Ok((3, 3, vec![(0, 0, 5.0), (2, 0, 7.0), (0, 2, 7.0)])),
            ),
            (
                "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n".to_string(),
                Ok((2, 2, vec![(1, 0, 1.0), (0, 1, 1.0)])),
            ),
            (
                "%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 2 -4\n".to_string(),
                Ok((2, 2, vec![(1, 1, -4.0)])),
            ),
            (
                format!("{REAL}2 2 2\n1 1 1\n% c\n1 2 1.5 9\n"),
                Err("parse error on line 5: entry must have 3 fields"),
            ),
            (
                format!("{REAL}2 2 1\n1 1\n"),
                Err("parse error on line 3: entry must have 3 fields"),
            ),
            (
                format!("{PATTERN}2 2 1\n1 1 1\n"),
                Err("parse error on line 3: entry must have 2 fields"),
            ),
            (
                format!("{PATTERN}2 2 1\n\u{A0}1\u{A0}\n"),
                Err("parse error on line 3: entry must have 2 fields"),
            ),
            (
                format!("{REAL}2 2 1\n0 1 x\n"),
                Err("parse error on line 3: index (0,1) out of 1..=2 x 1..=2"),
            ),
            (
                format!("{REAL}2 2 1\n2 3 1.0\n"),
                Err("parse error on line 3: index (2,3) out of 1..=2 x 1..=2"),
            ),
            (
                format!("{REAL}2 2 1\n1 1 x\n"),
                Err("parse error on line 3: bad value"),
            ),
            (
                format!("{REAL}2 2 1\n-1 y 1.0\n"),
                Err("parse error on line 3: bad row index"),
            ),
            (
                format!("{REAL}2 2 1\n1 +-1 1.0\n"),
                Err("parse error on line 3: bad col index"),
            ),
            (
                format!("{REAL}2 2 1000000000000000\n1 1 1.0\n"),
                Err("parse error on line 3: header promised 1000000000000000 entries, found 1"),
            ),
        ];
        for (doc, want) in cases {
            let got = parse(&doc)
                .map(|c| (c.rows(), c.cols(), c.entries().to_vec()))
                .map_err(|e| e.to_string());
            assert_eq!(got, want.map_err(String::from), "document {doc:?}");
        }
    }

    #[test]
    fn non_finite_values_are_rejected_on_their_line() {
        for lit in ["NaN", "nan", "inf", "-inf", "+infinity", "1e400", "-1e400"] {
            let text =
                format!("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 {lit}\n");
            assert_eq!(
                parse(&text).unwrap_err().to_string(),
                "parse error on line 4: value is not finite",
                "{lit}"
            );
        }
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
