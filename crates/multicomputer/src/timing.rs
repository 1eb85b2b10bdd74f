//! Per-phase timing ledgers.
//!
//! The paper reports two aggregate costs per scheme: `T_Distribution`
//! (packing + send/receive + unpacking) and `T_Compression` (compression,
//! or encoding + decoding for the ED scheme). To let the scheme drivers
//! reconstruct those aggregates — and to expose finer structure for the
//! ablation benches — every charge on a simulated processor is attributed
//! to a [`Phase`], accumulated in a [`PhaseLedger`].

use crate::time::VirtualTime;
use std::fmt;
use std::ops::{Add, AddAssign};

/// The phases a distribution scheme's work is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Computing the partition bounds (not counted by the paper, §4).
    Partition,
    /// Building CRS/CCS arrays from a dense array (SFC at receivers, CFS at
    /// the source).
    Compress,
    /// Building the ED special buffer at the source.
    Encode,
    /// Packing compressed arrays / dense elements into a send buffer.
    Pack,
    /// Sending: `T_Startup + elems × T_Data` per message, charged at the
    /// sender (the paper counts send/receive once, on the wire).
    Send,
    /// Receive-side bookkeeping other than blocking (normally ~0).
    Recv,
    /// Unpacking a received buffer into `RO`/`CO`/`VL` (CFS) or a dense
    /// local array (SFC), including index conversion.
    Unpack,
    /// Decoding the ED special buffer into `RO`/`CO`/`VL`.
    Decode,
    /// Idle time spent blocked in `recv` waiting for a message that has not
    /// arrived yet (virtual mode: clock synchronisation jumps).
    Wait,
    /// Post-distribution computation (SpMV etc. from `sparsedist-ops`).
    Compute,
    /// Reliable-delivery recovery: ARQ timeouts (with exponential backoff)
    /// and the wire cost of retransmitted frames under fault injection.
    Retry,
    /// Anything else.
    Other,
}

impl Phase {
    /// All phases, in ledger order.
    pub const ALL: [Phase; 12] = [
        Phase::Partition,
        Phase::Compress,
        Phase::Encode,
        Phase::Pack,
        Phase::Send,
        Phase::Recv,
        Phase::Unpack,
        Phase::Decode,
        Phase::Wait,
        Phase::Compute,
        Phase::Retry,
        Phase::Other,
    ];

    fn index(self) -> usize {
        match self {
            Phase::Partition => 0,
            Phase::Compress => 1,
            Phase::Encode => 2,
            Phase::Pack => 3,
            Phase::Send => 4,
            Phase::Recv => 5,
            Phase::Unpack => 6,
            Phase::Decode => 7,
            Phase::Wait => 8,
            Phase::Compute => 9,
            Phase::Retry => 10,
            Phase::Other => 11,
        }
    }

    /// Short label for table output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Partition => "partition",
            Phase::Compress => "compress",
            Phase::Encode => "encode",
            Phase::Pack => "pack",
            Phase::Send => "send",
            Phase::Recv => "recv",
            Phase::Unpack => "unpack",
            Phase::Decode => "decode",
            Phase::Wait => "wait",
            Phase::Compute => "compute",
            Phase::Retry => "retry",
            Phase::Other => "other",
        }
    }

    /// One-character key for timeline bars, distinct for every phase:
    /// mostly the label's first letter, with `wait` as `.`, `retry` as `!`,
    /// and hand-picked letters where first letters collide (pack vs
    /// partition, compute vs compress).
    pub fn timeline_char(self) -> char {
        match self {
            Phase::Partition => 'p',
            Phase::Compress => 'c',
            Phase::Encode => 'e',
            Phase::Pack => 'k',
            Phase::Send => 's',
            Phase::Recv => 'r',
            Phase::Unpack => 'u',
            Phase::Decode => 'd',
            Phase::Wait => '.',
            Phase::Compute => 'x',
            Phase::Retry => '!',
            Phase::Other => 'o',
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Counters of injected faults and recovery actions on one simulated
/// processor. Deterministic for a given [`crate::fault::FaultPlan`]: drops,
/// corruptions and delays are counted where the frame is *processed* (the
/// receiver), retries and exhausted sends where recovery runs (the sender),
/// acks/nacks where they are emitted (the receiver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames lost on the wire (receiver side).
    pub drops: u64,
    /// Frames rejected by the CRC32 check (receiver side).
    pub corrupts: u64,
    /// Frames delivered late (receiver side).
    pub delays: u64,
    /// Frames retransmitted after a timeout (sender side).
    pub retries: u64,
    /// Ack control frames emitted (receiver side).
    pub acks: u64,
    /// Nack control frames emitted (receiver side).
    pub nacks: u64,
}

impl FaultStats {
    /// True when no fault was seen and no recovery ran.
    pub fn is_quiet(&self) -> bool {
        self.drops == 0 && self.corrupts == 0 && self.delays == 0 && self.retries == 0
    }
}

impl AddAssign for FaultStats {
    fn add_assign(&mut self, rhs: FaultStats) {
        self.drops += rhs.drops;
        self.corrupts += rhs.corrupts;
        self.delays += rhs.delays;
        self.retries += rhs.retries;
        self.acks += rhs.acks;
        self.nacks += rhs.nacks;
    }
}

/// Bytes-on-the-wire counters for one simulated processor.
///
/// The paper's cost model charges `T_Data` per *logical element*, which is
/// what the virtual clock books — but with the compact v3 wire format a
/// logical element no longer costs a fixed 8 bytes, so the engine also
/// counts every **physical transmission** here: one record per data frame
/// leaving this rank (retransmissions included), with its logical element
/// count and its actual encoded byte size. Comparing `elements * 8` with
/// `bytes` is exactly the v1-vs-v3 wire saving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Data frames transmitted from this rank (retransmissions included).
    pub messages: u64,
    /// Logical elements across those frames (what `T_Data` was charged on).
    pub elements: u64,
    /// Encoded payload bytes across those frames.
    pub bytes: u64,
}

impl WireStats {
    /// True when nothing has been transmitted.
    pub fn is_zero(&self) -> bool {
        self.messages == 0 && self.elements == 0 && self.bytes == 0
    }

    /// Mean encoded bytes per logical element (8.0 for the v1 layout;
    /// `None` when no elements have been sent).
    pub fn bytes_per_element(&self) -> Option<f64> {
        (self.elements > 0).then(|| self.bytes as f64 / self.elements as f64)
    }
}

impl AddAssign for WireStats {
    fn add_assign(&mut self, rhs: WireStats) {
        self.messages += rhs.messages;
        self.elements += rhs.elements;
        self.bytes += rhs.bytes;
    }
}

/// Time accumulated per [`Phase`] on one simulated processor, plus the
/// fault/recovery counters of the reliable-delivery layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseLedger {
    spans: [VirtualTime; 12],
    faults: FaultStats,
    wire: WireStats,
}

impl PhaseLedger {
    /// An all-zero ledger.
    pub fn new() -> Self {
        PhaseLedger::default()
    }

    /// Add `span` to `phase`.
    pub fn record(&mut self, phase: Phase, span: VirtualTime) {
        self.spans[phase.index()] += span;
    }

    /// Total accumulated in `phase`.
    pub fn get(&self, phase: Phase) -> VirtualTime {
        self.spans[phase.index()]
    }

    /// Sum over an arbitrary set of phases.
    pub fn sum(&self, phases: &[Phase]) -> VirtualTime {
        phases.iter().map(|&p| self.get(p)).sum()
    }

    /// Sum over every phase except `Wait` (which is idle, not work).
    pub fn busy_total(&self) -> VirtualTime {
        Phase::ALL
            .iter()
            .filter(|&&p| p != Phase::Wait)
            .map(|&p| self.get(p))
            .sum()
    }

    /// Iterate `(phase, span)` pairs with non-zero spans.
    pub fn nonzero(&self) -> impl Iterator<Item = (Phase, VirtualTime)> + '_ {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.get(p)))
            .filter(|(_, t)| t.as_micros() > 0.0)
    }

    /// The fault/recovery counters.
    pub fn faults(&self) -> FaultStats {
        self.faults
    }

    /// Mutable access for the engine's fault bookkeeping.
    pub fn faults_mut(&mut self) -> &mut FaultStats {
        &mut self.faults
    }

    /// The bytes-on-wire counters.
    pub fn wire(&self) -> WireStats {
        self.wire
    }

    /// Mutable access for the engine's wire bookkeeping.
    pub fn wire_mut(&mut self) -> &mut WireStats {
        &mut self.wire
    }
}

impl Add for PhaseLedger {
    type Output = PhaseLedger;
    fn add(mut self, rhs: PhaseLedger) -> PhaseLedger {
        self += rhs;
        self
    }
}

impl AddAssign for PhaseLedger {
    fn add_assign(&mut self, rhs: PhaseLedger) {
        for i in 0..self.spans.len() {
            self.spans[i] += rhs.spans[i];
        }
        self.faults += rhs.faults;
        self.wire += rhs.wire;
    }
}

impl fmt::Display for PhaseLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (p, t) in self.nonzero() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}={}", p.label(), t)?;
            first = false;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

/// Render the fault/recovery section of a fleet of per-rank ledgers: one
/// line per rank that saw faults or ran recovery, plus a totals line.
/// Returns an empty string when every ledger is quiet (no faults, no
/// retries) — callers can append the result unconditionally.
pub fn render_fault_summary(ledgers: &[PhaseLedger]) -> String {
    let mut total = FaultStats::default();
    let mut total_retry_time = VirtualTime::ZERO;
    let mut out = String::new();
    for (rank, l) in ledgers.iter().enumerate() {
        let f = l.faults();
        total += f;
        total_retry_time += l.get(Phase::Retry);
        if f.is_quiet() {
            continue;
        }
        out.push_str(&format!(
            "P{rank:<3} drops={} corrupt={} delayed={} retries={} ack/nack={}/{} retry_time={}\n",
            f.drops,
            f.corrupts,
            f.delays,
            f.retries,
            f.acks,
            f.nacks,
            l.get(Phase::Retry),
        ));
    }
    if total.is_quiet() {
        return String::new();
    }
    out.push_str(&format!(
        "faults: {} dropped, {} corrupted, {} delayed; {} retransmissions costing {}\n",
        total.drops, total.corrupts, total.delays, total.retries, total_retry_time,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: f64) -> VirtualTime {
        VirtualTime::from_micros(v)
    }

    #[test]
    fn add_and_get() {
        let mut l = PhaseLedger::new();
        l.record(Phase::Pack, us(3.0));
        l.record(Phase::Pack, us(2.0));
        l.record(Phase::Send, us(10.0));
        assert_eq!(l.get(Phase::Pack).as_micros(), 5.0);
        assert_eq!(l.get(Phase::Send).as_micros(), 10.0);
        assert_eq!(l.get(Phase::Unpack).as_micros(), 0.0);
    }

    #[test]
    fn sum_selected_phases() {
        let mut l = PhaseLedger::new();
        l.record(Phase::Pack, us(1.0));
        l.record(Phase::Send, us(2.0));
        l.record(Phase::Unpack, us(4.0));
        l.record(Phase::Compress, us(8.0));
        let dist = l.sum(&[Phase::Pack, Phase::Send, Phase::Unpack]);
        assert_eq!(dist.as_micros(), 7.0);
    }

    #[test]
    fn busy_total_excludes_wait() {
        let mut l = PhaseLedger::new();
        l.record(Phase::Compress, us(5.0));
        l.record(Phase::Wait, us(100.0));
        assert_eq!(l.busy_total().as_micros(), 5.0);
    }

    #[test]
    fn ledger_addition_merges() {
        let mut a = PhaseLedger::new();
        a.record(Phase::Encode, us(1.0));
        let mut b = PhaseLedger::new();
        b.record(Phase::Encode, us(2.0));
        b.record(Phase::Decode, us(3.0));
        let c = a + b;
        assert_eq!(c.get(Phase::Encode).as_micros(), 3.0);
        assert_eq!(c.get(Phase::Decode).as_micros(), 3.0);
    }

    #[test]
    fn all_contains_each_phase_once() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "ALL order must match index order");
        }
    }

    #[test]
    fn timeline_chars_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.timeline_char()), "duplicate key for {p}");
        }
        assert_eq!(Phase::Retry.timeline_char(), '!');
        assert_eq!(Phase::Wait.timeline_char(), '.');
    }

    #[test]
    fn fault_stats_merge_with_ledgers() {
        let mut a = PhaseLedger::new();
        a.faults_mut().drops = 2;
        a.faults_mut().retries = 3;
        let mut b = PhaseLedger::new();
        b.faults_mut().drops = 1;
        b.faults_mut().acks = 5;
        let c = a + b;
        assert_eq!(c.faults().drops, 3);
        assert_eq!(c.faults().retries, 3);
        assert_eq!(c.faults().acks, 5);
        assert!(!c.faults().is_quiet());
        assert!(PhaseLedger::new().faults().is_quiet());
    }

    #[test]
    fn fault_summary_lists_only_noisy_ranks() {
        let quiet = PhaseLedger::new();
        let mut noisy = PhaseLedger::new();
        noisy.faults_mut().drops = 4;
        noisy.faults_mut().retries = 4;
        noisy.record(Phase::Retry, us(1500.0));
        let s = render_fault_summary(&[quiet.clone(), noisy]);
        assert!(s.contains("P1"), "{s}");
        assert!(!s.contains("P0"), "{s}");
        assert!(s.contains("4 retransmissions"), "{s}");
        assert_eq!(render_fault_summary(&vec![quiet; 3]), "");
    }

    #[test]
    fn wire_stats_merge_and_derive() {
        let mut a = PhaseLedger::new();
        *a.wire_mut() += WireStats {
            messages: 2,
            elements: 10,
            bytes: 80,
        };
        let mut b = PhaseLedger::new();
        *b.wire_mut() += WireStats {
            messages: 1,
            elements: 6,
            bytes: 20,
        };
        let c = a + b;
        assert_eq!(
            c.wire(),
            WireStats {
                messages: 3,
                elements: 16,
                bytes: 100
            }
        );
        assert_eq!(c.wire().bytes_per_element(), Some(6.25));
        assert!(PhaseLedger::new().wire().is_zero());
        assert_eq!(WireStats::default().bytes_per_element(), None);
    }

    #[test]
    fn display_lists_nonzero_only() {
        let mut l = PhaseLedger::new();
        l.record(Phase::Send, us(1500.0));
        let s = l.to_string();
        assert!(s.contains("send=1.500ms"), "{s}");
        assert!(!s.contains("pack"));
        assert_eq!(PhaseLedger::new().to_string(), "(empty)");
    }
}
