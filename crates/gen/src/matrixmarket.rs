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

/// Entry-section text per parse thread, at least: below about 1 MiB a
/// thread costs more than the share of float parsing it takes over.
const MIN_CHUNK_BYTES: usize = 1 << 20;

/// Parse a MatrixMarket `coordinate real general` document.
///
/// `pattern` matrices get value 1.0 per entry; `symmetric` matrices are
/// expanded (the mirrored entry is materialised). `integer` values are
/// accepted as reals.
///
/// Fields split where [`str::split_whitespace`] splits and lines end at
/// `\n`, as in [`str::lines`]. Values must be finite: `NaN`, `inf` and
/// literals that overflow `f64` are parse errors on their line. The
/// entry section is parsed in chunks of whole lines, one per host core
/// and at least about 1 MiB each; the result, and on failure the first
/// error by line, equal a one-chunk parse. The entries are allocated once
/// for the whole document, after each chunk has counted its lines: a chunk
/// of `n` lines gets `min(n, nnz)` slots (twice that for `symmetric`), so
/// neither the size line nor the text alone sizes the allocation. Each
/// chunk parses into its own slots, and one pass closes the gaps that its
/// comment and blank lines leave.
pub fn parse(text: &str) -> Result<Coo, MmError> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    parse_in(text, cores.min(text.len() / MIN_CHUNK_BYTES))
}

/// [`parse`] with the entry section cut into at most `chunks` chunks (at
/// least one). Chunk 0 is counted and parsed on the calling thread, the
/// rest on scoped threads.
pub(crate) fn parse_in(text: &str, chunks: usize) -> Result<Coo, MmError> {
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

    let shape = Shape {
        rows,
        cols,
        pattern: field == "pattern",
        symmetric: symmetry == "symmetric",
    };
    let mut cur = Cursor { text, pos: 0 };
    for _ in 0..=size_line {
        cur.skip_line();
    }
    let section = &text[cur.pos..];
    let parts = split_lines(section, chunks);
    let lines = on_each(parts.iter().copied(), count_lines);
    let per_line = if shape.symmetric { 2 } else { 1 };
    let slots: Vec<usize> = lines.iter().map(|&n| n.min(nnz) * per_line).collect();
    let mut entries = vec![(0, 0, 0.0); slots.iter().sum()];
    let results = {
        let mut rest = entries.as_mut_slice();
        let outs = slots.iter().map(|&n| {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            out
        });
        on_each(parts.iter().copied().zip(outs), |(part, out)| {
            parse_chunk(part, shape, out)
        })
    };

    // The first failing chunk holds the first failing line.
    let parsed = results
        .into_iter()
        .enumerate()
        .map(|(i, result)| {
            result.map_err(|(line, reason)| {
                let before: usize = lines[..i].iter().sum();
                parse_err(size_line + 1 + before + line, reason)
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let seen: usize = parsed.iter().map(|c| c.seen).sum();
    if seen != nnz {
        return Err(parse_err(
            last_line(),
            format!("header promised {nnz} entries, found {seen}"),
        ));
    }
    // Close the gaps after each chunk's entries, front to back.
    let (mut len, mut start) = (0, 0);
    for (chunk, slots) in parsed.iter().zip(&slots) {
        if start != len {
            entries.copy_within(start..start + chunk.written, len);
        }
        len += chunk.written;
        start += slots;
    }
    entries.truncate(len);
    Ok(Coo::from_entries(rows, cols, entries))
}

/// `f` of each item, in order: the first on the calling thread, the rest
/// on one scoped thread each.
fn on_each<T: Send, R: Send>(
    mut items: impl Iterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let f = &f;
    std::thread::scope(|s| {
        let first = items.next();
        let rest: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        first
            .map(f)
            .into_iter()
            .chain(rest.into_iter().map(|t| {
                t.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }))
            .collect()
    })
}

/// How many lines [`parse_chunk`] walks in `text`: one per `\n`, and one
/// more for a last line without it.
fn count_lines(text: &str) -> usize {
    // A `u8` sum per block of 255 bytes cannot overflow, and vectorises.
    let newlines: usize = text
        .as_bytes()
        .chunks(255)
        .map(|block| block.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n')) as usize)
        .sum();
    newlines + usize::from(!text.is_empty() && !text.ends_with('\n'))
}

/// What the header and size line fix for every entry line.
#[derive(Clone, Copy)]
struct Shape {
    rows: usize,
    cols: usize,
    pattern: bool,
    symmetric: bool,
}

/// Cut `section` after `\n` bytes into at most `k` chunks of about equal
/// length, each but the last ending in `\n`. Always at least one chunk.
fn split_lines(section: &str, k: usize) -> Vec<&str> {
    let mut parts = Vec::with_capacity(k.max(1));
    let mut rest = section;
    for left in (2..=k).rev() {
        let target = rest.len() / left;
        let Some(nl) = rest.as_bytes()[target..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let (part, tail) = rest.split_at(target + nl + 1);
        parts.push(part);
        rest = tail;
    }
    parts.push(rest);
    parts
}

/// How many entries one chunk wrote, and how many entry lines it held.
struct Chunk {
    written: usize,
    seen: usize,
}

/// Parse one chunk of whole entry lines, the last possibly without its
/// `\n`, into `out`. Entries past the end of `out` are checked but not
/// kept: a chunk holds more entry lines than slots only when the whole
/// document holds more than its size line promised. An error is the
/// chunk's 1-based line number and the reason.
fn parse_chunk(
    text: &str,
    shape: Shape,
    out: &mut [(usize, usize, f64)],
) -> Result<Chunk, (usize, String)> {
    let Shape {
        rows,
        cols,
        pattern,
        symmetric,
    } = shape;
    let want = if pattern { 2 } else { 3 };
    let mut written = 0;
    let mut put = |entry| {
        if let Some(slot) = out.get_mut(written) {
            *slot = entry;
            written += 1;
        }
    };
    let mut cur = Cursor { text, pos: 0 };
    let mut line = 0;
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
        let err = |reason: &str| (line, reason.to_string());
        if n != want {
            return Err(err(&format!("entry must have {want} fields")));
        }
        let r: usize = tok[0].parse().map_err(|_| err("bad row index"))?;
        let c: usize = tok[1].parse().map_err(|_| err("bad col index"))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(err(&format!(
                "index ({r},{c}) out of 1..={rows} x 1..={cols}"
            )));
        }
        let v: f64 = if pattern {
            1.0
        } else {
            let v: f64 = tok[2].parse().map_err(|_| err("bad value"))?;
            if !v.is_finite() {
                return Err(err("value is not finite"));
            }
            v
        };
        put((r - 1, c - 1, v));
        if symmetric && r != c {
            put((c - 1, r - 1, v));
        }
        seen += 1;
    }
    Ok(Chunk { written, seen })
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

    fn outcome(doc: &str, chunks: usize) -> Result<Coo, String> {
        parse_in(doc, chunks).map_err(|e| e.to_string())
    }

    /// `doc` parses to the same result or error string in any chunk count.
    fn assert_chunk_invariant(doc: &str) -> Result<Coo, String> {
        let one = outcome(doc, 1);
        for chunks in [2, 3, 4, 7] {
            assert_eq!(outcome(doc, chunks), one, "{chunks} chunks of {doc:?}");
        }
        one
    }

    /// The documents of `entry_section_corpus_is_pinned`.
    #[test]
    fn entry_section_corpus_parses_alike_in_chunks() {
        const REAL: &str = "%%MatrixMarket matrix coordinate real general\n";
        const PATTERN: &str = "%%MatrixMarket matrix coordinate pattern general\n";
        let docs = [
            format!("{REAL}2 2 2\n1\t1\t1.5\n2\t2 2.5\t\n"),
            format!("{REAL}2 2 1\n2\x0B1\x0B-3\x0B\n"),
            format!("{REAL}2 2 2\n1\r2\r0.5\r\n2 1 4\r"),
            "%%MatrixMarket matrix coordinate real general\r\n% c\r\n2 2 1\r\n1 2 7\r\n"
                .to_string(),
            format!("{REAL}2 2 1\n\u{A0}1\u{A0}2\u{A0}8\u{A0}\n"),
            format!("{REAL}2 2 1\n2\u{3000}2\u{3000}1e-3\u{3000}\n"),
            format!(
                "{REAL}3 3 2\n1 1 1\n% between\n\n \t\n  % indented\n\u{A0}%nbsp\n3 3 3\n% end\n"
            ),
            format!("{REAL}3 3 1\n+3 +1 +2.5\n"),
            format!("{PATTERN}2 3 2\n1 3\n2 1\n"),
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 5\n3 1 7\n".to_string(),
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n".to_string(),
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 2 -4\n".to_string(),
            format!("{REAL}2 2 2\n1 1 1\n% c\n1 2 1.5 9\n"),
            format!("{REAL}2 2 1\n1 1\n"),
            format!("{PATTERN}2 2 1\n1 1 1\n"),
            format!("{PATTERN}2 2 1\n\u{A0}1\u{A0}\n"),
            format!("{REAL}2 2 1\n0 1 x\n"),
            format!("{REAL}2 2 1\n2 3 1.0\n"),
            format!("{REAL}2 2 1\n1 1 x\n"),
            format!("{REAL}2 2 1\n-1 y 1.0\n"),
            format!("{REAL}2 2 1\n1 +-1 1.0\n"),
            format!("{REAL}2 2 1000000000000000\n1 1 1.0\n"),
        ];
        for doc in &docs {
            let got = assert_chunk_invariant(doc);
            assert_eq!(got, parse(doc).map_err(|e| e.to_string()), "{doc:?}");
        }
    }

    #[test]
    fn chunks_may_start_on_comments_and_blank_lines() {
        let doc = "%%MatrixMarket matrix coordinate real general\n4 4 4\n\
                   1 1 1\n% c\n2 2 2\n\n3 3 3\r\n% d\n4 4 4";
        let section = &doc[doc.find("1 1 1").unwrap()..];
        let starts: Vec<char> = (1..=8)
            .flat_map(|k| split_lines(section, k))
            .filter_map(|part| part.chars().next())
            .collect();
        assert!(
            starts.contains(&'%') && starts.contains(&'\n'),
            "{starts:?}"
        );
        let coo = outcome(doc, 1).unwrap();
        assert_eq!(coo.entries().last(), Some(&(3, 3, 4.0)));
        for k in 2..=8 {
            assert_eq!(outcome(doc, k), Ok(coo.clone()), "{k} chunks");
        }
    }

    #[test]
    fn chunks_rejoin_the_whole_section() {
        let section = "1 1 1\r\n% c\n\n2 2 2\n\u{A0}3 3 3\n4 4 4";
        for k in 1..=9 {
            let parts = split_lines(section, k);
            assert!((1..=k.max(1)).contains(&parts.len()), "{k}: {parts:?}");
            assert!(parts[..parts.len() - 1].iter().all(|p| p.ends_with('\n')));
            assert_eq!(parts.concat(), section, "{k}");
        }
        assert_eq!(split_lines("", 4), [""]);
    }

    #[test]
    fn the_earlier_of_two_failing_chunks_wins() {
        let mut doc =
            String::from("%%MatrixMarket matrix coordinate real general\n% c\n20 20 20\n");
        for i in 1..=20 {
            match i {
                3 => doc.push_str("3 3 x\n"),
                18 => doc.push_str("18 18 NaN\n"),
                _ => doc.push_str(&format!("{i} {i} {i}\n")),
            }
        }
        let section = &doc[doc.find("1 1 1").unwrap()..];
        let parts = split_lines(section, 2);
        assert!(
            parts[0].contains(" x\n") && parts[1].contains("NaN"),
            "{parts:?}"
        );
        for k in 1..=8 {
            assert_eq!(
                outcome(&doc, k).unwrap_err(),
                "parse error on line 6: bad value",
                "{k} chunks"
            );
        }
        // Alone, the later error is named by its own line in any chunk.
        let later = doc.replace("3 3 x", "3 3 3");
        for k in 1..=8 {
            assert_eq!(
                outcome(&later, k).unwrap_err(),
                "parse error on line 21: value is not finite",
                "{k} chunks"
            );
        }
    }

    /// `doc` parses to the one-chunk result or error string at 1..=4
    /// chunks; returns the one-chunk outcome.
    fn same_in_one_to_four_chunks(doc: &str) -> Result<Coo, String> {
        let one = outcome(doc, 1);
        for k in 2..=4 {
            assert_eq!(outcome(doc, k), one, "{k} chunks of {doc:?}");
        }
        one
    }

    /// The entry section of `doc`: everything after its size line.
    fn section_of<'a>(doc: &'a str, size_line: &str) -> &'a str {
        &doc[doc.find(size_line).unwrap() + size_line.len()..]
    }

    fn is_entry_line(line: &str) -> bool {
        let t = line.trim();
        !t.is_empty() && !t.starts_with('%')
    }

    #[test]
    fn comment_and_blank_lines_at_both_ends_of_chunks() {
        let mut doc = String::from("%%MatrixMarket matrix coordinate real general\n40 40 40\n");
        // The padding puts every cut at 2..=4 chunks between two
        // non-entry lines, both comments and blanks among them.
        let pad = "-".repeat(52);
        for i in 1..=40 {
            doc.push_str(&format!(
                "% before {i} {pad}\n\n{i} {i} {i}.5\n\n% after {i} {pad}\n"
            ));
        }
        let section = section_of(&doc, "40 40 40\n");
        let (mut starts, mut ends) = (Vec::new(), Vec::new());
        for k in 2..=4 {
            let parts = split_lines(section, k);
            assert_eq!(parts.len(), k);
            starts.extend(parts[1..].iter().map(|p| p.lines().next().unwrap()));
            ends.extend(parts[..k - 1].iter().map(|p| p.lines().last().unwrap()));
        }
        for cut in [&starts, &ends] {
            assert!(!cut.iter().any(|l| is_entry_line(l)), "{cut:?}");
            assert!(cut.iter().any(|l| l.is_empty()), "{cut:?}");
            assert!(cut.iter().any(|l| l.starts_with('%')), "{cut:?}");
        }
        let coo = same_in_one_to_four_chunks(&doc).unwrap();
        let want: Vec<_> = (1..=40).map(|i| (i - 1, i - 1, i as f64 + 0.5)).collect();
        assert_eq!(coo.entries(), want);

        // An error in the last chunk is named by its own line.
        let bad = doc.replace("37 37 37.5", "37 37 y");
        assert_eq!(
            same_in_one_to_four_chunks(&bad).unwrap_err(),
            "parse error on line 185: bad value"
        );
        // The earlier of two failing chunks wins.
        let after2 = format!("% after 2 {pad}\n");
        let both = bad.replace(&after2, &format!("{after2}2 x 1\n"));
        assert_eq!(
            same_in_one_to_four_chunks(&both).unwrap_err(),
            "parse error on line 13: bad col index"
        );
    }

    #[test]
    fn a_chunk_may_hold_no_entry_lines() {
        let mut doc = String::from("%%MatrixMarket matrix coordinate real general\n4 4 4\n");
        doc.push_str("1 1 1\n2 2 2\n");
        for i in 0..200 {
            doc.push_str(if i % 2 == 0 { "% nothing here\n" } else { "\n" });
        }
        doc.push_str("3 3 3\n4 4 4\n");
        let section = section_of(&doc, "4 4 4\n");
        for k in 3..=4 {
            let parts = split_lines(section, k);
            assert!(
                parts.iter().any(|p| !p.lines().any(is_entry_line)),
                "{k}: {parts:?}"
            );
        }
        let coo = same_in_one_to_four_chunks(&doc).unwrap();
        assert_eq!(
            coo.entries(),
            [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0), (3, 3, 4.0)]
        );
        // Entry-free chunks count their lines toward a later error's line.
        let bad = doc.replace("3 3 3\n4 4 4\n", "3 3 3\n4 4 4 4\n");
        assert_eq!(
            same_in_one_to_four_chunks(&bad).unwrap_err(),
            "parse error on line 206: entry must have 3 fields"
        );
        // Too few entries: the count error names the document's last line.
        let short = doc.replace("3 3 3\n4 4 4\n", "3 3 3\n");
        assert_eq!(
            same_in_one_to_four_chunks(&short).unwrap_err(),
            "parse error on line 205: header promised 4 entries, found 3"
        );
    }

    #[test]
    fn symmetric_entries_on_both_sides_of_a_cut() {
        let mut doc = String::from("%%MatrixMarket matrix coordinate real symmetric\n30 30 59\n");
        let mut want = Vec::new();
        for i in 1..=30 {
            doc.push_str(&format!("{i} {i} {i}\n"));
            want.push((i - 1, i - 1, i as f64));
            if i > 1 {
                doc.push_str(&format!("{i} {} -{i}\n", i - 1));
                want.push((i - 1, i - 2, -(i as f64)));
                want.push((i - 2, i - 1, -(i as f64)));
            }
        }
        let section = section_of(&doc, "30 30 59\n");
        for k in 2..=4 {
            let parts = split_lines(section, k);
            assert_eq!(parts.len(), k);
            assert!(
                parts.iter().all(|p| p.lines().count() > 2),
                "{k}: {parts:?}"
            );
        }
        let coo = same_in_one_to_four_chunks(&doc).unwrap();
        assert_eq!(coo.entries(), want);

        let bad = doc.replace("29 28 -29\n", "29 31 -29\n");
        assert_eq!(
            same_in_one_to_four_chunks(&bad).unwrap_err(),
            "parse error on line 59: index (29,31) out of 1..=30 x 1..=30"
        );
    }

    #[test]
    fn a_hundred_thousand_comment_lines_and_two_entries() {
        let mut doc = String::from("%%MatrixMarket matrix coordinate real general\n9 9 2\n");
        doc.push_str("1 2 3\n");
        for i in 0..100_000 {
            doc.push_str(if i % 3 == 0 { "\n" } else { "% comment\n" });
        }
        doc.push_str("9 9 -1\n");
        let coo = same_in_one_to_four_chunks(&doc).unwrap();
        assert_eq!(coo.entries(), [(0, 1, 3.0), (8, 8, -1.0)]);

        // More entries than the header promised, all in one chunk or split.
        let more = doc.replace("1 2 3\n", "1 2 3\n4 4 4\n5 5 5\n");
        assert_eq!(
            same_in_one_to_four_chunks(&more).unwrap_err(),
            "parse error on line 100006: header promised 2 entries, found 4"
        );
        // A bad line after the surplus entries still wins over the count.
        let bad = more.replace("9 9 -1\n", "9 9 -1\n9 9 inf\n");
        assert_eq!(
            same_in_one_to_four_chunks(&bad).unwrap_err(),
            "parse error on line 100007: value is not finite"
        );
    }

    /// The token set of the root suite's seeded corruption fuzz; here every
    /// corrupted document must parse alike in any chunk count.
    #[test]
    fn seeded_corruptions_parse_alike_in_chunks() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const TOKENS: [&str; 18] = [
            "\t",
            "\x0B",
            "\r",
            "\r\n",
            "\n",
            " ",
            "\u{A0}",
            "\u{3000}",
            "é",
            "+",
            "-",
            "%",
            "1e400",
            "NaN",
            "inf",
            "0",
            "99999999999999999999",
            "x",
        ];
        let a = crate::SparseRandom::new(64, 64)
            .sparse_ratio(0.1)
            .seed(5)
            .generate();
        let clean = render(&Coo::from_dense(&a));
        let mut rng = StdRng::seed_from_u64(0x4D4D_C4A7);
        let mut accepted = 0;
        for _ in 0..1000 {
            let mut doc = clean.clone();
            for _ in 0..rng.random_range(1..=3usize) {
                let mut at = rng.random_range(0..doc.len() + 1);
                while !doc.is_char_boundary(at) {
                    at -= 1;
                }
                let next = doc[at..].chars().next().map_or(0, char::len_utf8);
                let tok = TOKENS[rng.random_range(0..TOKENS.len())];
                match rng.random_range(0..3usize) {
                    0 => doc.insert_str(at, tok),
                    1 => doc.replace_range(at..at + next, tok),
                    _ => doc.replace_range(at..at + next, ""),
                }
            }
            accepted += usize::from(assert_chunk_invariant(&doc).is_ok());
        }
        assert!((1..1000).contains(&accepted), "accepted {accepted} of 1000");
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
