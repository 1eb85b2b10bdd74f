//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into a layer's public
//! functions, kept in memory, and written out once the run ends. Self time
//! is a span's duration minus the time its direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    tag: &'static str,
    pass: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span, returned by [`Tracer::open`].
#[must_use]
pub struct Open(Option<usize>);

/// Records spans when enabled; a disabled tracer is a no-op, so the
/// untraced run executes the same code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pass: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

/// Per-pass totals of one `(name, tag)` span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Summed self time in seconds.
    pub self_s: f64,
    /// Number of spans.
    pub count: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    pub fn pass(&self) -> u32 {
        self.pass
    }

    /// Start a new pass: later spans carry its id.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    pub fn open(&mut self, name: &'static str, tag: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            pass: self.pass,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now_ns();
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = end;
        }
    }

    /// Run `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, tag);
        let out = f();
        self.close(open);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self-time totals of every `(name, tag)` in `pass`.
    pub fn totals(&self, pass: u32) -> BTreeMap<(&'static str, &'static str), Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<_, Total> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if s.pass != pass {
                continue;
            }
            let t = out.entry((s.name, s.tag)).or_default();
            t.self_s += (s.end_ns - s.start_ns).saturating_sub(child) as f64 * 1e-9;
            t.count += 1;
        }
        out
    }

    /// All spans as JSON: one row per span, in `fields` order; a span's id
    /// is its row index, which `parent` refers to.
    pub fn to_json(&self) -> String {
        let mut out = String::from(
            "{\"fields\": [\"name\", \"tag\", \"pass\", \"parent\", \"start_ns\", \"end_ns\"],\n\"spans\": [\n",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "[\"{}\", \"{}\", {}, {parent}, {}, {}]",
                s.name, s.tag, s.pass, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}
