//! Virtual-clock tracing and per-rank metrics.
//!
//! The paper's whole argument is a time decomposition — `T_Distribution`
//! vs `T_Compression` per scheme — but the [`crate::timing::PhaseLedger`]
//! only keeps end-of-run totals. This module records *where inside a run*
//! time and bytes go: every [`crate::engine::Env::phase`] block, every
//! physical transmission, every ARQ timeout and every clock-sync wait
//! becomes a [`Span`] with virtual-clock start/end stamps, and per-rank
//! counters/histograms accumulate in a [`MetricsRegistry`].
//!
//! # Determinism rules
//!
//! Tracing is **observational**: it never charges the virtual clock, never
//! reorders an existing charge, and is collected per rank in that rank's
//! own [`crate::Env`]. With no sink installed (or a disabled one such as
//! [`NullSink`]) no tracer is allocated at all, so ledgers and clocks are
//! byte-identical to an untraced run. With a sink attached the clocks are
//! *still* identical — the spans are a pure function of the charges.
//!
//! Work charged per part (the staged source's `charge_staged` in
//! `sparsedist-core`) reports per-part op counts in part order, and the
//! enclosing phase span is subdivided proportionally into one child span
//! per part.
//!
//! # Sinks and exporters
//!
//! A [`TraceSink`] receives one [`RankTrace`] per rank, in rank order,
//! after the SPMD closure joins. [`MemorySink`] buffers them for
//! inspection; [`chrome_trace_json`] renders a `chrome://tracing` /
//! Perfetto-loadable JSON, [`metrics_json`] a flat metrics document, and
//! [`render_waterfall`] / [`render_phase_table`] text views for the CLI.

use crate::time::VirtualTime;
use crate::timing::{Phase, PhaseLedger, WireStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// One traced interval on one simulated processor.
///
/// `ops` counts the element-operations charged between the span's open and
/// close; `wire` counts the physical transmissions in the same window.
/// Child spans produced by per-part subdivision carry their part's share.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The rank the span was recorded on.
    pub rank: usize,
    /// The phase the work was attributed to.
    pub phase: Phase,
    /// The scheme (or driver) scope active when the span opened — `"SFC"`,
    /// `"ED"`, `"redistribute"`, … — `""` outside any driver.
    pub scope: &'static str,
    /// Detail label: `""` for a plain phase block, `"part3"` for a
    /// per-part child, `"->2"` / `"<-0"` for wire traffic, `"timeout->1"`
    /// for ARQ backoff, or a collective's name.
    pub label: String,
    /// Virtual-clock reading when the span opened.
    pub start: VirtualTime,
    /// Virtual-clock reading when the span closed.
    pub end: VirtualTime,
    /// Element-operations charged inside the span.
    pub ops: u64,
    /// Physical transmissions inside the span.
    pub wire: WireStats,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> VirtualTime {
        self.end.saturating_sub(self.start)
    }

    /// True when the span carries no time, no ops and no wire traffic.
    fn is_empty(&self) -> bool {
        self.duration().as_micros() == 0.0 && self.ops == 0 && self.wire.is_zero()
    }
}

/// A power-of-two histogram: bucket `0` counts zeros, bucket `b ≥ 1`
/// counts values in `[2^(b-1), 2^b)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let bucket = if v == 0 { 0 } else { 64 - v.leading_zeros() };
        *self.buckets.entry(bucket).or_insert(0) += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Non-empty `(bucket, count)` pairs, ascending by bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(&b, &c)| (b, c))
    }

    /// Inclusive lower bound of a bucket.
    pub fn bucket_floor(bucket: u32) -> u64 {
        if bucket == 0 {
            0
        } else {
            1u64 << (bucket - 1)
        }
    }
}

/// Deterministic per-rank counters and histograms.
///
/// Keys are sorted (`BTreeMap`), so exports are byte-stable for a given
/// run. Counters cover cumulative totals (`ops.total`, `wire.bytes`,
/// `arena.checkouts`, fault counts); histograms cover distributions
/// (per-message element counts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Record `v` into the histogram `name`.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram, if any value was recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }
}

/// Everything one rank recorded during one SPMD run: its spans in
/// emission order, its metrics, and a copy of its [`PhaseLedger`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    /// The rank.
    pub rank: usize,
    /// Spans in emission (close) order.
    pub spans: Vec<Span>,
    /// Counters and histograms.
    pub metrics: MetricsRegistry,
    /// The rank's phase ledger, as returned by the run.
    pub ledger: PhaseLedger,
}

/// Where completed rank traces go.
///
/// [`crate::engine::Multicomputer::run_tasks_with_ledgers`] calls
/// [`TraceSink::record`] once per rank, in rank order, after every rank's
/// task has finished — sinks never observe a half-finished run and never
/// need internal ordering logic.
pub trait TraceSink: Send + Sync {
    /// When false, the engine allocates no tracer at all: zero overhead,
    /// bit-identical clocks. Defaults to true.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Receive one completed rank trace.
    fn record(&self, trace: RankTrace);
}

/// The default sink: disabled, records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn is_enabled(&self) -> bool {
        false
    }

    fn record(&self, _trace: RankTrace) {}
}

/// A sink that buffers every rank trace in memory for later export.
#[derive(Debug, Default)]
pub struct MemorySink {
    traces: Mutex<Vec<RankTrace>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Drain the buffered traces, sorted by rank.
    pub fn take(&self) -> Vec<RankTrace> {
        // lint: allow(E002) — a poisoned sink means a rank panicked; propagate
        let mut traces = std::mem::take(&mut *self.traces.lock().expect("trace sink poisoned"));
        traces.sort_by_key(|t| t.rank);
        traces
    }
}

impl TraceSink for MemorySink {
    fn record(&self, trace: RankTrace) {
        // lint: allow(E002) — a poisoned sink means a rank panicked; propagate
        self.traces.lock().expect("trace sink poisoned").push(trace);
    }
}

/// An open span on the tracer's stack.
#[derive(Debug)]
struct OpenSpan {
    phase: Phase,
    scope: &'static str,
    label: String,
    start: VirtualTime,
    ops0: u64,
    wire0: WireStats,
    /// `(part id, ops)` pairs attached by `part_ops`: the span subdivides
    /// into per-part children proportionally on close.
    parts: Option<Vec<(usize, u64)>>,
}

/// The per-rank recorder the engine drives. Only allocated when an enabled
/// sink is installed; every `Env` hot-path hook checks for `None` first.
#[derive(Debug)]
pub(crate) struct Tracer {
    rank: usize,
    scope: &'static str,
    spans: Vec<Span>,
    metrics: MetricsRegistry,
    open: Vec<OpenSpan>,
    /// Cumulative element-operations observed via `note_ops`.
    ops_total: u64,
}

impl Tracer {
    pub(crate) fn new(rank: usize) -> Self {
        Tracer {
            rank,
            scope: "",
            spans: Vec::new(),
            metrics: MetricsRegistry::new(),
            open: Vec::new(),
            ops_total: 0,
        }
    }

    pub(crate) fn set_scope(&mut self, scope: &'static str) {
        self.scope = scope;
    }

    pub(crate) fn note_ops(&mut self, n: u64) {
        self.ops_total += n;
    }

    pub(crate) fn open(&mut self, phase: Phase, label: String, now: VirtualTime, wire: WireStats) {
        self.open.push(OpenSpan {
            phase,
            scope: self.scope,
            label,
            start: now,
            ops0: self.ops_total,
            wire0: wire,
            parts: None,
        });
    }

    /// Attach `(part id, ops)` pairs to the innermost open span; it emits
    /// proportional per-part child spans when it closes.
    pub(crate) fn part_ops(&mut self, parts: &[(usize, u64)]) {
        if let Some(top) = self.open.last_mut() {
            top.parts
                .get_or_insert_with(Vec::new)
                .extend_from_slice(parts);
        }
    }

    pub(crate) fn close(&mut self, now: VirtualTime, wire: WireStats) {
        // lint: allow(E002) — Env::span pairs every close with an open
        let open = self.open.pop().expect("span close without open");
        let span = Span {
            rank: self.rank,
            phase: open.phase,
            scope: open.scope,
            label: open.label,
            start: open.start,
            end: now,
            ops: self.ops_total - open.ops0,
            wire: wire_delta(wire, open.wire0),
        };
        let parts = open.parts;
        if !span.is_empty() {
            if let Some(parts) = &parts {
                self.subdivide(&span, parts);
            }
            self.spans.push(span);
        }
    }

    /// Emit per-part children of `parent`, splitting its interval in part
    /// order proportionally to each part's op count. In virtual mode the
    /// parent's duration *is* the merged op total times `T_Operation`, so
    /// the split reproduces the sequential execution exactly.
    fn subdivide(&mut self, parent: &Span, parts: &[(usize, u64)]) {
        let total: u64 = parts.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return;
        }
        let dur = parent.duration().as_micros();
        let mut prefix = 0u64;
        for &(pid, n) in parts {
            if n == 0 {
                continue;
            }
            let t0 = parent.start + VirtualTime::from_micros(dur * prefix as f64 / total as f64);
            prefix += n;
            let t1 = parent.start + VirtualTime::from_micros(dur * prefix as f64 / total as f64);
            self.spans.push(Span {
                rank: self.rank,
                phase: parent.phase,
                scope: parent.scope,
                label: format!("part{pid}"),
                start: t0,
                end: t1,
                ops: n,
                wire: WireStats::default(),
            });
        }
    }

    /// Emit an instantaneous-interval span directly (wire traffic, waits,
    /// timeouts) without going through the open-span stack.
    pub(crate) fn emit(
        &mut self,
        phase: Phase,
        label: String,
        start: VirtualTime,
        end: VirtualTime,
        wire: WireStats,
    ) {
        let span = Span {
            rank: self.rank,
            phase,
            scope: self.scope,
            label,
            start,
            end,
            ops: 0,
            wire,
        };
        if !span.is_empty() {
            self.spans.push(span);
        }
    }

    pub(crate) fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Close out the run: fold run-level totals into the registry and
    /// produce the rank's trace.
    pub(crate) fn finish(mut self, ledger: &PhaseLedger) -> RankTrace {
        debug_assert!(self.open.is_empty(), "unclosed span at end of run");
        self.metrics.count("ops.total", self.ops_total);
        let w = ledger.wire();
        self.metrics.count("wire.messages", w.messages);
        self.metrics.count("wire.elements", w.elements);
        self.metrics.count("wire.bytes", w.bytes);
        let f = ledger.faults();
        for (name, v) in [
            ("faults.drops", f.drops),
            ("faults.corrupts", f.corrupts),
            ("faults.delays", f.delays),
            ("faults.retries", f.retries),
            ("faults.acks", f.acks),
            ("faults.nacks", f.nacks),
        ] {
            if v > 0 {
                self.metrics.count(name, v);
            }
        }
        self.metrics.count("spans.count", self.spans.len() as u64);
        RankTrace {
            rank: self.rank,
            spans: self.spans,
            metrics: self.metrics,
            ledger: ledger.clone(),
        }
    }
}

fn wire_delta(now: WireStats, then: WireStats) -> WireStats {
    WireStats {
        messages: now.messages - then.messages,
        elements: now.elements - then.elements,
        bytes: now.bytes - then.bytes,
    }
}

/// Format a microsecond reading with nanosecond resolution — fixed-width
/// decimal, so exports are byte-stable.
fn us(t: VirtualTime) -> String {
    format!("{:.3}", t.as_micros())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render rank traces as Chrome-trace ("Trace Event Format") JSON, loadable
/// in `chrome://tracing` and <https://ui.perfetto.dev>. One process, one
/// thread per rank, complete (`"ph":"X"`) events with microsecond
/// timestamps off the virtual clock. Byte-stable for a given run.
pub fn chrome_trace_json(traces: &[RankTrace]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for t in traces {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"rank {}\"}}}}",
            t.rank, t.rank
        );
        for s in &t.spans {
            let name = if s.label.is_empty() {
                s.phase.label().to_string()
            } else {
                format!("{} {}", s.phase.label(), s.label)
            };
            let cat = if s.scope.is_empty() { "run" } else { s.scope };
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":0,\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"ops\":{},\"msgs\":{},\"elems\":{},\"bytes\":{}}}}}",
                json_escape(&name),
                json_escape(cat),
                t.rank,
                us(s.start),
                us(s.duration()),
                s.ops,
                s.wire.messages,
                s.wire.elements,
                s.wire.bytes
            );
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Render rank traces as a flat metrics JSON document: per rank, the phase
/// totals off the ledger, the wire counters, and every registry counter
/// and histogram. Byte-stable for a given run.
pub fn metrics_json(traces: &[RankTrace]) -> String {
    let mut out = String::from("{\"ranks\":[\n");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(out, "{{\"rank\":{},\"phases_us\":{{", t.rank);
        let mut first = true;
        for (p, v) in t.ledger.nonzero() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{}", p.label(), us(v));
        }
        out.push_str("},\"counters\":{");
        let mut first = true;
        for (k, v) in t.metrics.counters() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{}", json_escape(k), v);
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (k, h) in t.metrics.histograms() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":{{",
                json_escape(k),
                h.count(),
                h.sum()
            );
            let mut bfirst = true;
            for (b, c) in h.buckets() {
                if !bfirst {
                    out.push(',');
                }
                bfirst = false;
                let _ = write!(out, "\"{}\":{}", Histogram::bucket_floor(b), c);
            }
            out.push_str("}}");
        }
        out.push_str("},\"spans\":");
        let _ = write!(out, "{}}}", t.spans.len());
    }
    out.push_str("\n]}\n");
    out
}

/// Render a per-rank phase waterfall on the **absolute** virtual-time axis:
/// each rank's row places its spans where they actually happened, keyed by
/// [`Phase::timeline_char`], so cross-rank causality — who waited for
/// whom — is visible at a glance. [`render_phase_table`] carries the
/// per-phase totals and wire counts behind it.
pub fn render_waterfall(traces: &[RankTrace], width: usize) -> String {
    let width = width.max(10);
    let makespan = traces
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.end))
        .fold(VirtualTime::ZERO, VirtualTime::max);
    let scale = if makespan.as_micros() > 0.0 {
        width as f64 / makespan.as_micros()
    } else {
        0.0
    };
    let mut out = String::new();
    for t in traces {
        let mut row = vec![' '; width];
        // Longest spans first, so nested/short spans overwrite their
        // parents and stay visible.
        let mut order: Vec<&Span> = t.spans.iter().collect();
        order.sort_by(|a, b| {
            b.duration()
                .as_micros()
                .partial_cmp(&a.duration().as_micros())
                // lint: allow(E002) — virtual micros are never NaN by construction
                .expect("durations are finite")
                .then(
                    a.start
                        .as_micros()
                        .partial_cmp(&b.start.as_micros())
                        // lint: allow(E002) — virtual micros are never NaN by construction
                        .expect("starts are finite"),
                )
        });
        for s in order {
            // lint: allow(W002) — non-negative micros scaled into 0..=width
            let lo = (s.start.as_micros() * scale).floor() as usize;
            // lint: allow(W002) — non-negative micros scaled into 0..=width
            let hi = ((s.end.as_micros() * scale).ceil() as usize).min(width);
            let ch = s.phase.timeline_char();
            for slot in row.iter_mut().take(hi).skip(lo) {
                *slot = ch;
            }
        }
        let bar: String = row.into_iter().collect();
        let end = t
            .spans
            .iter()
            .map(|s| s.end)
            .fold(VirtualTime::ZERO, VirtualTime::max);
        let _ = writeln!(out, "P{:<3}|{}| {}", t.rank, bar, end);
    }
    out
}

/// Render a phase × rank summary table: one row per phase that any rank
/// spent time in, one column per rank (time in ms), followed by per-rank
/// ops and wire bytes rows off the metrics registry.
pub fn render_phase_table(traces: &[RankTrace]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<10}", "phase");
    for t in traces {
        let _ = write!(out, "{:>12}", format!("P{}", t.rank));
    }
    out.push('\n');
    for p in Phase::ALL {
        if traces.iter().all(|t| t.ledger.get(p).as_micros() == 0.0) {
            continue;
        }
        let _ = write!(out, "{:<10}", p.label());
        for t in traces {
            let _ = write!(out, "{:>12}", t.ledger.get(p).to_string());
        }
        out.push('\n');
    }
    let _ = write!(out, "{:<10}", "ops");
    for t in traces {
        let _ = write!(out, "{:>12}", t.metrics.counter("ops.total"));
    }
    out.push('\n');
    let _ = write!(out, "{:<10}", "tx bytes");
    for t in traces {
        let _ = write!(out, "{:>12}", t.metrics.counter("wire.bytes"));
    }
    out.push('\n');
    let _ = write!(out, "{:<10}", "tx elems");
    for t in traces {
        let _ = write!(out, "{:>12}", t.metrics.counter("wire.elements"));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(v: f64) -> VirtualTime {
        VirtualTime::from_micros(v)
    }

    fn span(rank: usize, phase: Phase, t0: f64, t1: f64) -> Span {
        Span {
            rank,
            phase,
            scope: "TEST",
            label: String::new(),
            start: vt(t0),
            end: vt(t1),
            ops: 3,
            wire: WireStats::default(),
        }
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1011);
        let buckets: Vec<(u32, u64)> = h.buckets().collect();
        // 0 → bucket 0; 1,1 → bucket 1; 2,3 → bucket 2; 4 → bucket 3;
        // 1000 → bucket 10.
        assert_eq!(buckets, vec![(0, 1), (1, 2), (2, 2), (3, 1), (10, 1)]);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(10), 512);
    }

    #[test]
    fn registry_counts_and_observes() {
        let mut m = MetricsRegistry::new();
        m.count("a", 2);
        m.count("a", 3);
        m.observe("h", 7);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn tracer_measures_ops_and_wire_deltas() {
        let mut tr = Tracer::new(2);
        tr.set_scope("TEST");
        tr.open(Phase::Pack, String::new(), vt(0.0), WireStats::default());
        tr.note_ops(10);
        tr.close(
            vt(10.0),
            WireStats {
                messages: 1,
                elements: 4,
                bytes: 32,
            },
        );
        let trace = tr.finish(&PhaseLedger::new());
        assert_eq!(trace.spans.len(), 1);
        let s = &trace.spans[0];
        assert_eq!((s.rank, s.phase, s.ops), (2, Phase::Pack, 10));
        assert_eq!(s.wire.bytes, 32);
        assert_eq!(s.scope, "TEST");
        assert_eq!(trace.metrics.counter("ops.total"), 10);
    }

    #[test]
    fn empty_spans_are_dropped() {
        let mut tr = Tracer::new(0);
        tr.open(Phase::Recv, String::new(), vt(5.0), WireStats::default());
        tr.close(vt(5.0), WireStats::default());
        assert!(tr.finish(&PhaseLedger::new()).spans.is_empty());
    }

    #[test]
    fn part_ops_subdivide_proportionally_in_part_order() {
        let mut tr = Tracer::new(0);
        tr.open(Phase::Encode, String::new(), vt(0.0), WireStats::default());
        tr.part_ops(&[(0, 30), (1, 10), (2, 0), (3, 60)]);
        tr.note_ops(100);
        tr.close(vt(100.0), WireStats::default());
        let spans = tr.finish(&PhaseLedger::new()).spans;
        // Three non-zero children then the parent.
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].label, "part0");
        assert_eq!(
            (spans[0].start, spans[0].end, spans[0].ops),
            (vt(0.0), vt(30.0), 30)
        );
        assert_eq!((spans[1].start, spans[1].end), (vt(30.0), vt(40.0)));
        assert_eq!(spans[2].label, "part3");
        assert_eq!((spans[2].start, spans[2].end), (vt(40.0), vt(100.0)));
        assert_eq!(spans[3].label, "");
        assert_eq!(spans[3].ops, 100);
    }

    #[test]
    fn memory_sink_sorts_by_rank() {
        let sink = MemorySink::new();
        for rank in [2usize, 0, 1] {
            sink.record(Tracer::new(rank).finish(&PhaseLedger::new()));
        }
        let ranks: Vec<usize> = sink.take().iter().map(|t| t.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2]);
        assert!(sink.take().is_empty(), "take drains");
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.is_enabled());
        assert!(MemorySink::new().is_enabled());
    }

    fn sample_traces() -> Vec<RankTrace> {
        let mut l0 = PhaseLedger::new();
        l0.record(Phase::Pack, vt(8.0));
        l0.record(Phase::Send, vt(4.0));
        let mut m0 = MetricsRegistry::new();
        m0.count("ops.total", 8);
        m0.count("wire.bytes", 64);
        m0.count("wire.elements", 8);
        m0.observe("tx.elems", 8);
        let t0 = RankTrace {
            rank: 0,
            spans: vec![
                span(0, Phase::Pack, 0.0, 8.0),
                span(0, Phase::Send, 8.0, 12.0),
            ],
            metrics: m0,
            ledger: l0,
        };
        let mut l1 = PhaseLedger::new();
        l1.record(Phase::Wait, vt(12.0));
        let t1 = RankTrace {
            rank: 1,
            spans: vec![span(1, Phase::Wait, 0.0, 12.0)],
            metrics: MetricsRegistry::new(),
            ledger: l1,
        };
        vec![t0, t1]
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_stable() {
        let traces = sample_traces();
        let a = chrome_trace_json(&traces);
        let b = chrome_trace_json(&traces);
        assert_eq!(a, b, "export must be byte-stable");
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.contains("\"ph\":\"M\""), "thread metadata present");
        assert!(a.contains("\"name\":\"pack\""), "{a}");
        assert!(a.contains("\"ts\":0.000,\"dur\":8.000"), "{a}");
        assert!(a.contains("\"tid\":1"), "{a}");
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn metrics_json_lists_phases_counters_histograms() {
        let s = metrics_json(&sample_traces());
        assert!(s.contains("\"rank\":0"), "{s}");
        assert!(s.contains("\"pack\":8.000"), "{s}");
        assert!(s.contains("\"ops.total\":8"), "{s}");
        assert!(s.contains("\"tx.elems\""), "{s}");
        assert!(s.contains("\"buckets\":{\"8\":1}"), "{s}");
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn waterfall_places_spans_on_absolute_axis() {
        let s = render_waterfall(&sample_traces(), 24);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        // Rank 0: pack for 2/3 of the row then send; rank 1 waits the
        // whole makespan.
        assert!(lines[0].contains("kkkk"), "{s}");
        assert!(lines[0].contains("ss"), "{s}");
        // Count dots inside the bar only — the time suffix also has one.
        let bar = lines[1].split('|').nth(1).unwrap();
        assert_eq!(bar.matches('.').count(), 24, "{s}");
    }

    #[test]
    fn phase_table_has_rank_columns() {
        let s = render_phase_table(&sample_traces());
        let header = s.lines().next().unwrap();
        assert!(header.contains("P0") && header.contains("P1"), "{s}");
        assert!(s.contains("pack"), "{s}");
        assert!(s.contains("wait"), "{s}");
        assert!(!s.contains("decode"), "all-zero phases are omitted: {s}");
        assert!(s.lines().any(|l| l.starts_with("tx bytes")), "{s}");
    }
}
