//! The SPMD engine: every simulated processor is a task on one
//! deterministic event loop ([`crate::exec`]), with point-to-point
//! messages and a per-processor virtual clock.
//!
//! # Virtual time
//!
//! Every cost is *charged*: [`Env::charge_ops`] advances the local clock
//! by `n × T_Operation`, and [`Env::send`] advances it by
//! `T_Startup + elems × T_Data`. A message records the sender's clock
//! after the charge as its arrival time; [`Env::recv_async`] synchronises
//! the receiver's clock to `max(local, arrival)` and books the jump as
//! [`Phase::Wait`]. Because the arrival times depend only on message
//! causality, the ledgers are fully deterministic no matter in which
//! order the event loop interleaves the ranks.
//!
//! # Rank programs
//!
//! A rank program is an `async` task started by
//! [`Multicomputer::run_tasks`]. Its await points are receives and
//! [`Env::send_budget`], a host-memory bound that never moves a clock:
//! sends, nonblocking posts and [`Env::wait_all`] never block on a peer.
//! [`Multicomputer::run`] wraps a synchronous closure as a task; such a
//! closure can send and compute, but it cannot receive.
//!
//! # Reliable delivery and fault injection
//!
//! When a [`FaultPlan`] is installed ([`Multicomputer::with_faults`]), all
//! traffic runs through a reliable-delivery layer:
//!
//! * every frame carries the CRC32 of its payload; the receiver rejects
//!   frames whose payload fails the check and emits a **nack** on a
//!   dedicated control mailbox (good frames are **acked**);
//! * a dropped frame elicits nothing — the sender's ARQ timeout fires;
//! * the sender retransmits after a timeout that backs off exponentially
//!   ([`RetryPolicy`]), up to a retry budget, charging each timeout and
//!   retransmission to [`Phase::Retry`];
//! * exhausting the budget surfaces as [`CommError::RetriesExhausted`] on
//!   *both* ends (a poison frame unblocks the receiver), never a deadlock.
//!
//! Fault decisions are pure hashes of `(seed, src, dst, seq, attempt)`
//! (see [`crate::fault`]), and the sender — which shares the plan — charges
//! the same timeout the ack round-trip would have established: same plan,
//! same ledgers, bit for bit. Faulted frames are still pushed into the
//! receiver's mailbox (tagged with their injected fate) so the receiver
//! always has something to reject; a `Drop` tag means "this frame never
//! arrived" and is skipped without cost.
//!
//! [`Env::send`] and [`Env::isend`] run one ARQ walk on two lanes. The
//! blocking lane charges attempts and backoffs to the CPU clock. The
//! nonblocking lane schedules them on the NIC timeline
//! ([`crate::progress::NicProgress`]) without advancing the CPU clock,
//! and [`Env::wait_all`] books whatever slice of the drain was recovery
//! work to [`Phase::Retry`]. Recovery that hides behind compute costs
//! nothing, exactly like hidden first attempts.
//!
//! # Mid-run rank death and stalls
//!
//! A plan may schedule a rank to die at a virtual-time instant
//! ([`FaultPlan::with_death_at`], CLI `die=R:T`). Every send checks the
//! frame's would-be arrival against the destination's death time: a frame
//! that cannot land in time fails with [`CommError::PeerDead`] at the
//! sender, and a *death notice* frame is pushed so the dying receiver
//! observes its own death at the matching point in its stream — sender
//! detection and receiver observation always agree, keeping recovery
//! protocols deterministic.
//!
//! The engine cannot hang on an early error: when a rank's task finishes,
//! its mailboxes close and every peer awaiting a frame from it gets
//! [`CommError::Disconnected`]. When every unfinished rank awaits a frame
//! that can never arrive, the event loop wakes them all with
//! [`CommError::Stalled`], so a protocol bug surfaces as a typed error.
//!
//! Without a plan there is no CRC work, no acks and every send is one
//! plain α-β charge — the paper's tables are unaffected.

use crate::exec::{self, EngineKind, EventFabric};
use crate::fault::{FaultKind, FaultPlan, RetryPolicy};
use crate::model::MachineModel;
use crate::pack::{PackArena, PackBuffer};
use crate::progress::{NicProgress, TxWindow};
use crate::time::VirtualTime;
use crate::timing::{Phase, PhaseLedger, WireStats};
use crate::topology::Topology;
use crate::trace::{RankTrace, TraceSink, Tracer};

use std::collections::BTreeMap;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;

/// A communication failure surfaced by the engine instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The reliable-delivery layer ran out of retries on one message.
    RetriesExhausted {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Per-link sequence number of the doomed message.
        seq: u64,
        /// Attempts made (initial transmission + retries).
        attempts: u32,
    },
    /// The peer rank is declared dead by the fault plan.
    PeerDead {
        /// The dead rank.
        rank: usize,
    },
    /// The peer's task finished early and its mailbox is closed.
    Disconnected {
        /// The vanished peer.
        peer: usize,
    },
    /// Every unfinished rank is waiting for a frame, so none can ever
    /// arrive: the event loop's deadlock watchdog woke this receive. Only
    /// reachable through a protocol bug.
    Stalled {
        /// The rank being waited on.
        src: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::RetriesExhausted {
                src,
                dst,
                seq,
                attempts,
            } => write!(
                f,
                "message {seq} from rank {src} to rank {dst} undelivered after {attempts} attempts"
            ),
            CommError::PeerDead { rank } => write!(f, "rank {rank} is dead"),
            CommError::Disconnected { peer } => {
                write!(f, "rank {peer} hung up: peer processor exited early")
            }
            CommError::Stalled { src } => write!(
                f,
                "deadlock watchdog: every rank is blocked, no frame from rank {src} can arrive (protocol stall)"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// A message delivered to scheme code: the payload plus provenance.
#[derive(Debug, Clone)]
pub struct Message {
    /// Which rank sent this message.
    pub src: usize,
    /// The packed payload.
    pub payload: PackBuffer,
    /// Sender-side clock at the moment transmission completed.
    pub arrival: VirtualTime,
}

/// What actually travels on a link: a framed payload with the metadata
/// the reliable-delivery layer needs. Crate-visible so the event-loop
/// fabric ([`crate::exec`]) can carry it.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    seq: u64,
    src: usize,
    payload: PackBuffer,
    arrival: VirtualTime,
    /// CRC32 of the payload *as sent* (before any injected corruption), so
    /// the receiver can detect a corrupted frame.
    crc: u32,
    /// The fate the fault plan decided for this frame (None = clean).
    injected: Option<FaultKind>,
    /// True on the poison frame a sender emits after exhausting retries.
    failed: bool,
    /// A death notice: the rank that died (possibly the sender itself),
    /// pushed so the receiver observes the death at the matching point in
    /// its frame stream. Consuming one yields [`CommError::PeerDead`].
    dead: Option<usize>,
}

impl Frame {
    /// A data frame from `src`, with neither failure nor death marked.
    fn data(
        seq: u64,
        src: usize,
        payload: PackBuffer,
        arrival: VirtualTime,
        crc: u32,
        injected: Option<FaultKind>,
    ) -> Frame {
        Frame {
            seq,
            src,
            payload,
            arrival,
            crc,
            injected,
            failed: false,
            dead: None,
        }
    }

    /// The payload bytes this frame holds in the fabric, what the send
    /// budget ([`crate::exec::SEND_BUDGET`]) counts.
    pub(crate) fn wire_bytes(&self) -> usize {
        self.payload.byte_len()
    }
}

/// Receiver → sender control frame of the ack/nack protocol.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AckMsg {
    seq: u64,
    ok: bool,
}

/// Where [`Env::transmit`] runs an ARQ walk: the blocking [`Env::send`]
/// on the CPU clock, or the nonblocking [`Env::isend`] on the NIC
/// timeline ([`NicProgress`]).
#[derive(Clone, Copy)]
enum Lane {
    /// Wire time and backoff advance the CPU clock and are booked to the
    /// ledger per window; the sender's own death is checked at each
    /// attempt's wire start. Spans `->d` and `timeout->d`.
    Cpu,
    /// Wire time and backoff are scheduled on the NIC and the CPU clock
    /// stands still; the sender's own death is checked at post time.
    /// Span `->d (nb)`.
    Nic,
}

/// The boxed future of one rank task, borrowing the run's context and
/// the rank's [`Env`] for `'e`.
pub type RankTask<'e, R> = Pin<Box<dyn Future<Output = R> + 'e>>;

/// A simulated distributed-memory machine with `p` processors.
pub struct Multicomputer {
    nprocs: usize,
    model: MachineModel,
    topology: Topology,
    /// Shared by every rank's [`Env`] instead of cloned into each.
    faults: Option<Arc<FaultPlan>>,
    retry: RetryPolicy,
    /// One buffer-reuse arena per rank, persisting across `run_*` calls so
    /// repeated distributions stop reallocating their send buffers.
    arenas: Vec<Rc<PackArena>>,
    /// Where completed rank traces go; `None` (the default) and disabled
    /// sinks allocate no tracer at all.
    sink: Option<Arc<dyn TraceSink>>,
}

impl Multicomputer {
    /// A machine whose time is simulated under `model` (fully connected
    /// interconnect, as in the paper).
    ///
    /// # Panics
    /// Panics if `nprocs` is zero or exceeds
    /// [`EngineKind::max_procs`].
    pub fn virtual_machine(nprocs: usize, model: MachineModel) -> Self {
        Multicomputer::virtual_with_topology(nprocs, model, Topology::FullyConnected)
    }

    /// A virtual machine on an explicit interconnect [`Topology`]; message
    /// costs become `T_Startup + hops·T_Hop + elems·T_Data`.
    ///
    /// # Panics
    /// Panics if `nprocs` is zero or exceeds [`EngineKind::max_procs`], or
    /// the topology's grid does not match.
    pub fn virtual_with_topology(nprocs: usize, model: MachineModel, topology: Topology) -> Self {
        assert!(nprocs > 0, "a multicomputer needs at least one processor");
        // Validate grid topologies eagerly (hops would panic lazily).
        if let Topology::Mesh2D { pr, pc } | Topology::Torus2D { pr, pc } = topology {
            assert_eq!(
                pr * pc,
                nprocs,
                "topology grid {pr}x{pc} != {nprocs} processors"
            );
        }
        assert!(
            nprocs <= EngineKind::EventLoop.max_procs(),
            "{} processors exceeds the engine maximum of {}",
            nprocs,
            EngineKind::EventLoop.max_procs()
        );
        Multicomputer {
            nprocs,
            model,
            topology,
            faults: None,
            retry: RetryPolicy::default(),
            arenas: (0..nprocs).map(|_| Rc::new(PackArena::new())).collect(),
            sink: None,
        }
    }

    /// Accepts the one engine there is, [`EngineKind::EventLoop`], and
    /// changes nothing. Kept so callers written against the former
    /// two-engine API still compile.
    pub fn with_engine(self, _engine: EngineKind) -> Self {
        self
    }

    /// Rank `rank`'s buffer-reuse arena. The same arena is handed to that
    /// rank's [`Env`] on every `run_*` call, so allocations recycled in one
    /// distribution are reused by the next.
    pub fn arena(&self, rank: usize) -> &PackArena {
        &self.arenas[rank]
    }

    /// Install a [`FaultPlan`]: all traffic now runs through the
    /// reliable-delivery layer (CRC32 framing, ack/nack, timeouts,
    /// retransmission).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Set the [`RetryPolicy`] used when a fault plan is installed.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Install a [`TraceSink`]: every subsequent `run_*` call records one
    /// [`RankTrace`] per rank (spans, counters, histograms) and hands them
    /// to the sink in rank order after the run completes. Tracing is
    /// purely observational — it never charges the virtual clock — and a
    /// sink whose [`TraceSink::is_enabled`] is false (e.g.
    /// [`crate::trace::NullSink`]) costs nothing at all.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The installed trace sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.sink.as_ref()
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// The retry policy the reliable-delivery layer uses.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The interconnect topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The α-β machine model this machine charges by.
    pub fn model(&self) -> MachineModel {
        self.model
    }

    /// Run the synchronous closure `f` on every processor and collect the
    /// return values in rank order. The closure may compute and send, but
    /// a receive needs an await point: write the rank program as a task
    /// for [`Multicomputer::run_tasks`] instead.
    ///
    /// # Panics
    /// Propagates a panic from any processor's closure.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&mut Env) -> R,
    {
        self.run_tasks(&f, |f, env| Box::pin(async move { f(env) }))
    }

    /// Run an asynchronous rank program on every processor and collect
    /// the return values in rank order.
    ///
    /// `f` is called once per rank with the shared read-only context
    /// `ctx` and the rank's [`Env`], and returns that rank's task: a
    /// boxed future borrowing both (in practice, a named `async fn`
    /// wrapped in `Box::pin`). The context parameter exists because the
    /// `for<'e>` closure bound forbids the *closure* from capturing
    /// borrowed per-run state (owner maps, scheme tables) — thread it
    /// through `ctx` instead, where the compiler can tie its lifetime to
    /// each task's. Receives (and [`Env::send_budget`]) are the only
    /// awaited operations; the event loop parks a task at a receive whose
    /// frame has not been pushed yet, so tens of thousands of ranks share
    /// one OS thread.
    pub fn run_tasks<C, F, R>(&self, ctx: &C, f: F) -> Vec<R>
    where
        C: ?Sized,
        F: for<'e> Fn(&'e C, &'e mut Env) -> RankTask<'e, R>,
    {
        self.run_tasks_with_ledgers(ctx, f).0
    }

    /// Like [`Multicomputer::run_tasks`], but also returns each rank's
    /// [`PhaseLedger`] — the usual entry point for scheme drivers.
    pub fn run_tasks_with_ledgers<C, F, R>(&self, ctx: &C, f: F) -> (Vec<R>, Vec<PhaseLedger>)
    where
        C: ?Sized,
        F: for<'e> Fn(&'e C, &'e mut Env) -> RankTask<'e, R>,
    {
        let p = self.nprocs;
        let fabric = Rc::new(EventFabric::new(p));
        let tracing = self.sink.as_ref().is_some_and(|s| s.is_enabled());
        let f = &f;
        let mut tasks: Vec<RankTask<'_, (R, PhaseLedger, Option<RankTrace>)>> =
            Vec::with_capacity(p);
        for rank in 0..p {
            let mut env = Env::new(rank, self, tracing, Rc::clone(&fabric));
            // The env is moved *into* the task so the future is
            // self-contained: no self-referential (env, future) pairs, no
            // unsafe. It is captured as is, not rebound inside, so the
            // future holds one `Env`, not two.
            tasks.push(Box::pin(async move {
                // lint: allow(C001) — the executor awaits the whole rank task; its internal yield points are still receives and the send budget
                let out = f(ctx, &mut env).await;
                let (ledger, trace) = env.into_parts();
                (out, ledger, trace)
            }));
        }
        let outs = exec::drive(tasks, &fabric);
        let mut results = Vec::with_capacity(p);
        let mut ledgers = Vec::with_capacity(p);
        let mut traces = Vec::with_capacity(p);
        for (r, l, t) in outs {
            results.push(r);
            ledgers.push(l);
            traces.push(t);
        }
        if let Some(sink) = &self.sink {
            // Rank order by construction — sinks never need to re-sort.
            for trace in traces.into_iter().flatten() {
                sink.record(trace);
            }
        }
        (results, ledgers)
    }
}

/// One simulated processor's execution environment: its rank, its
/// mailboxes, its clock, and its phase ledger.
pub struct Env {
    rank: usize,
    nprocs: usize,
    topology: Topology,
    model: MachineModel,
    /// The local virtual clock.
    now: VirtualTime,
    ledger: PhaseLedger,
    current_phase: Phase,
    /// Span/metrics recorder; `None` unless an enabled [`TraceSink`] is
    /// installed on the machine, so every hook below is a branch on `None`
    /// in the untraced hot path.
    tracer: Option<Tracer>,
    plan: Option<Arc<FaultPlan>>,
    retry: RetryPolicy,
    arena: Rc<PackArena>,
    /// Outgoing-link progress state for nonblocking sends ([`Env::isend`]).
    nic: NicProgress,
    /// Next per-link sequence number, keyed by destination. Sparse on
    /// purpose: a rank at p = 65536 typically talks to a handful of peers,
    /// and a dense per-rank `Vec` would cost O(p²) across the machine.
    send_seq: BTreeMap<usize, u64>,
    fabric: Rc<EventFabric>,
}

impl Env {
    fn new(rank: usize, machine: &Multicomputer, tracing: bool, fabric: Rc<EventFabric>) -> Self {
        Env {
            rank,
            nprocs: machine.nprocs,
            topology: machine.topology,
            model: machine.model,
            now: VirtualTime::ZERO,
            ledger: PhaseLedger::new(),
            current_phase: Phase::Other,
            tracer: tracing.then(|| Tracer::new(rank)),
            plan: machine.faults.clone(),
            retry: machine.retry,
            arena: Rc::clone(&machine.arenas[rank]),
            nic: NicProgress::new(),
            send_seq: BTreeMap::new(),
            fabric,
        }
    }

    /// Claim the next per-link sequence number for `dst`.
    fn next_seq(&mut self, dst: usize) -> u64 {
        let slot = self.send_seq.entry(dst).or_insert(0);
        let seq = *slot;
        *slot += 1;
        seq
    }

    /// This processor's rank, `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processors in the machine.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// True if the fault plan declares `rank` dead.
    pub fn is_rank_dead(&self, rank: usize) -> bool {
        self.plan.as_ref().is_some_and(|p| p.is_dead(rank))
    }

    /// The virtual-time instant (µs) the plan schedules `rank` to die.
    fn death_time_us(&self, rank: usize) -> Option<f64> {
        self.plan.as_ref().and_then(|p| p.death_time(rank))
    }

    /// Push a death-notice frame for `died` onto the link to `dst`, so the
    /// receiver observes the death at the matching point in its stream.
    /// Best-effort: the peer may already have exited.
    fn push_death_notice(&mut self, dst: usize, died: usize, seq: u64) {
        let frame = Frame {
            dead: Some(died),
            ..Frame::data(seq, self.rank, PackBuffer::new(), self.now, 0, None)
        };
        let _ = self.push_frame(dst, frame);
    }

    /// Death check for one attempt of a blocking or nonblocking send:
    /// `start` is when the sender commits the frame to the wire, `arrival`
    /// when it would land (including any injected delay). Returns the
    /// `PeerDead` error — after pushing the matching death notice — if the
    /// sender is already past its own death or the frame cannot land
    /// before the destination dies.
    fn check_timed_death(
        &mut self,
        dst: usize,
        seq: u64,
        start: VirtualTime,
        arrival: VirtualTime,
    ) -> Result<(), CommError> {
        if let Some(t) = self.death_time_us(self.rank) {
            if start.as_micros() > t {
                self.push_death_notice(dst, self.rank, seq);
                return Err(CommError::PeerDead { rank: self.rank });
            }
        }
        if let Some(t) = self.death_time_us(dst) {
            if arrival.as_micros() > t {
                self.push_death_notice(dst, dst, seq);
                return Err(CommError::PeerDead { rank: dst });
            }
        }
        Ok(())
    }

    /// This rank's buffer-reuse arena. Buffers checked out here and
    /// recycled after use keep their allocations across distributions
    /// (the arena lives on the [`Multicomputer`], not the `Env`).
    pub fn arena(&self) -> &PackArena {
        &self.arena
    }

    /// Count one physical transmission in the ledger's [`WireStats`].
    fn record_tx(&mut self, elems: u64, bytes: usize) {
        *self.ledger.wire_mut() += WireStats {
            messages: 1,
            elements: elems,
            bytes: bytes as u64,
        };
    }

    /// The ranks that are alive under the current fault plan, ascending
    /// (all ranks when no plan is installed).
    pub fn alive_ranks(&self) -> Vec<usize> {
        (0..self.nprocs)
            .filter(|&r| !self.is_rank_dead(r))
            .collect()
    }

    /// The lowest rank alive under the current fault plan, found without
    /// listing the others; `None` only if every rank is dead.
    pub(crate) fn lowest_alive_rank(&self) -> Option<usize> {
        (0..self.nprocs).find(|&r| !self.is_rank_dead(r))
    }

    /// Current local clock reading.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Run `f` attributed to `phase`: [`Env::charge_ops`] books into it
    /// while `f` runs.
    pub fn phase<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Env) -> T) -> T {
        let prev = self.begin_phase(phase);
        let out = f(self);
        self.end_phase(prev);
        out
    }

    /// Enter `phase` until the matching [`Env::end_phase`], for phase
    /// bodies that await a receive (which a closure passed to
    /// [`Env::phase`] cannot). Returns the phase to restore.
    pub fn begin_phase(&mut self, phase: Phase) -> Phase {
        let prev = self.current_phase;
        self.current_phase = phase;
        self.trace_open(phase, String::new());
        prev
    }

    /// Leave the phase entered by [`Env::begin_phase`], restoring `prev`.
    pub fn end_phase(&mut self, prev: Phase) {
        self.trace_close();
        self.current_phase = prev;
    }

    /// Run `f` as a labelled trace span inside the current phase — used by
    /// the scheme drivers so a chunked send shows up as one unit in the
    /// trace. A pure pass-through when tracing is off.
    pub fn span<T>(&mut self, label: &str, f: impl FnOnce(&mut Env) -> T) -> T {
        self.begin_span(label);
        let out = f(self);
        self.end_span();
        out
    }

    /// Open a labelled span until the matching [`Env::end_span`], for
    /// span bodies that await (the collectives). No-op when tracing is off.
    pub(crate) fn begin_span(&mut self, label: &str) {
        if self.tracer.is_some() {
            self.trace_open(self.current_phase, label.to_string());
        }
    }

    /// Close the span opened by [`Env::begin_span`].
    pub(crate) fn end_span(&mut self) {
        self.trace_close();
    }

    /// True when this run records spans (an enabled sink is installed).
    pub fn is_tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Set the driver scope stamped on subsequent spans (`"SFC"`, `"ED"`,
    /// `"redistribute"`, …). No-op when tracing is off.
    pub fn trace_scope(&mut self, scope: &'static str) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.set_scope(scope);
        }
    }

    /// Attach `(part id, ops)` pairs — merged in part order, exactly the
    /// numbers the staged source charges — to the innermost open span. On close
    /// the span subdivides into per-part child spans proportional to the
    /// counts, which reproduces the sequential execution's intervals
    /// exactly. No-op when tracing is off.
    pub fn trace_part_ops(&mut self, parts: &[(usize, u64)]) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.part_ops(parts);
        }
    }

    /// Bump a named metrics counter on this rank. No-op when tracing is
    /// off.
    pub fn trace_count(&mut self, name: &'static str, v: u64) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.metrics_mut().count(name, v);
        }
    }

    fn trace_open(&mut self, phase: Phase, label: String) {
        let (now, wire) = (self.now, self.ledger.wire());
        if let Some(tr) = self.tracer.as_mut() {
            tr.open(phase, label, now, wire);
        }
    }

    fn trace_close(&mut self) {
        let (now, wire) = (self.now, self.ledger.wire());
        if let Some(tr) = self.tracer.as_mut() {
            tr.close(now, wire);
        }
    }

    /// Charge `n` element operations (`n × T_Operation`) to the local clock
    /// and the current phase.
    pub fn charge_ops(&mut self, n: u64) {
        let cost = self.model.op_cost(n);
        self.now += cost;
        self.ledger.record(self.current_phase, cost);
        if let Some(tr) = self.tracer.as_mut() {
            tr.note_ops(n);
        }
    }

    /// Send `payload` to `dst`.
    ///
    /// Charges `T_Startup + hops·T_Hop + elems × T_Data` to the local
    /// clock, attributed to [`Phase::Send`], and stamps the message with
    /// the post-charge clock as its arrival time.
    ///
    /// With a [`FaultPlan`] installed the transmission runs through the
    /// reliable-delivery layer: injected drops and corruptions trigger
    /// timeouts, exponential backoff and retransmission (charged to
    /// [`Phase::Retry`]); exhausting the retry budget returns
    /// [`CommError::RetriesExhausted`]; a dead peer returns
    /// [`CommError::PeerDead`].
    ///
    /// # Panics
    /// Panics if `dst` is out of range (API misuse, like slice indexing).
    pub fn send(&mut self, dst: usize, payload: PackBuffer) -> Result<(), CommError> {
        assert!(dst < self.nprocs, "send to rank {dst} of {}", self.nprocs);
        self.transmit(dst, payload, Lane::Cpu)
    }

    /// Nonblocking send: post `payload` to this rank's NIC and return
    /// immediately **without advancing the local clock**.
    ///
    /// The NIC serialises the rank's outgoing transmissions (see
    /// [`crate::progress::NicProgress`]): the frame occupies the wire from
    /// `max(now, nic_free)` for the usual `T_Startup + hops·T_Hop +
    /// elems·T_Data`, and its arrival is stamped accordingly — so compute
    /// performed between `isend` calls genuinely overlaps with the
    /// transfers. Call [`Env::wait_all`] to rejoin the NIC; the completion
    /// jump is booked into the phase current *at the wait*.
    ///
    /// With a [`FaultPlan`] installed the ARQ runs **on the NIC timeline**
    /// instead of degrading to the blocking [`Env::send`]. Fault fates are
    /// pure hashes shared with the receiver, so the whole retransmit
    /// schedule is computable at post time: doomed attempts occupy the
    /// wire, each followed by its [`RetryPolicy::timeout_for`] backoff gap,
    /// until a clean (or delayed) attempt is committed — all as labelled
    /// NIC spans, with the CPU clock untouched. `wait_all` later books the
    /// recovery slice of the drain to [`Phase::Retry`] and the rest to the
    /// waiting phase, so a run with no compute between post and wait
    /// charges exactly the blocking totals, while recovery hidden behind
    /// compute costs nothing. Retry exhaustion surfaces here, at post
    /// time, as [`CommError::RetriesExhausted`] (the receiver is unblocked
    /// by a poison frame, as on the blocking path).
    ///
    /// # Errors
    /// Same failure modes as [`Env::send`].
    ///
    /// # Panics
    /// Panics if `dst` is out of range (API misuse, like slice indexing).
    pub fn isend(&mut self, dst: usize, payload: PackBuffer) -> Result<(), CommError> {
        assert!(dst < self.nprocs, "isend to rank {dst} of {}", self.nprocs);
        self.transmit(dst, payload, Lane::Nic)
    }

    /// The one ARQ walk behind [`Env::send`] and [`Env::isend`]. Each
    /// attempt resolves its fate from the plan, runs the timed-death
    /// check, occupies the wire on `lane` and pushes its frame; a doomed
    /// attempt is followed by its backoff and a retransmission, until a
    /// clean (or delayed) attempt is committed or the retry budget is
    /// spent. Without a plan every fate is clean and the CRC is 0, so the
    /// walk is one plain α-β transmission.
    fn transmit(&mut self, dst: usize, payload: PackBuffer, lane: Lane) -> Result<(), CommError> {
        if self.is_rank_dead(dst) {
            return Err(CommError::PeerDead { rank: dst });
        }
        if self.is_rank_dead(self.rank) {
            return Err(CommError::PeerDead { rank: self.rank });
        }
        let src = self.rank;
        let hops = self.topology.hops(src, dst, self.nprocs);
        let seq = self.next_seq(dst);
        let elems = payload.elem_count();
        let nbytes = payload.byte_len();
        let cost = self.model.message_cost_hops(elems, hops.max(1));
        let crc = if self.plan.is_some() {
            self.drain_acks(dst);
            payload.crc32()
        } else {
            0
        };
        let timed_deaths = self.plan.as_ref().is_some_and(|p| p.has_timed_deaths());
        let mut attempt: u32 = 0;
        loop {
            let fate = self
                .plan
                .as_ref()
                .and_then(|p| p.decide(src, dst, seq, attempt, self.current_phase));
            let delay = match fate {
                Some(FaultKind::Delay(extra_us)) => VirtualTime::from_micros(extra_us),
                _ => VirtualTime::ZERO,
            };
            if timed_deaths {
                let start = match lane {
                    Lane::Cpu => self.now,
                    Lane::Nic => self.now.max(self.nic.free_at()),
                };
                // The sender acts at `now`: the attempt's wire start on the
                // CPU lane, the post time on the NIC lane.
                self.check_timed_death(dst, seq, self.now, start + cost + delay)?;
            }
            let phase = if attempt == 0 {
                Phase::Send
            } else {
                Phase::Retry
            };
            let window = match lane {
                Lane::Cpu => {
                    let start = self.now;
                    self.now += cost;
                    self.ledger.record(phase, cost);
                    TxWindow {
                        start,
                        arrival: self.now,
                    }
                }
                Lane::Nic if attempt == 0 => self.nic.begin_tx(self.now, cost),
                Lane::Nic => self.nic.begin_retry_tx(self.now, cost),
            };
            self.record_tx(elems, nbytes);
            if let Some(tr) = self.tracer.as_mut() {
                let label = match lane {
                    Lane::Cpu => format!("->{dst}"),
                    Lane::Nic => format!("->{dst} (nb)"),
                };
                tr.metrics_mut().observe("tx.elems", elems);
                tr.emit(
                    phase,
                    label,
                    window.start,
                    window.arrival,
                    WireStats {
                        messages: 1,
                        elements: elems,
                        bytes: nbytes as u64,
                    },
                );
            }
            let arrival = window.arrival + delay;
            let Some(fault @ (FaultKind::Drop | FaultKind::Corrupt)) = fate else {
                return self.push_frame(dst, Frame::data(seq, src, payload, arrival, crc, fate));
            };
            // Transmit the doomed frame so the receiver can observe (and
            // for corruption, CRC-reject) it.
            let mut wire_payload = payload.clone();
            if let (FaultKind::Corrupt, Some(plan)) = (fault, &self.plan) {
                wire_payload.flip_bit(plan.aux_roll(src, dst, seq, attempt));
            }
            self.push_frame(dst, Frame::data(seq, src, wire_payload, arrival, crc, fate))?;
            if attempt >= self.retry.max_retries {
                // Unblock the receiver with a poison frame before
                // reporting failure on this side.
                let poison = Frame {
                    failed: true,
                    ..Frame::data(seq, src, PackBuffer::new(), arrival, 0, None)
                };
                self.push_frame(dst, poison)?;
                return Err(CommError::RetriesExhausted {
                    src,
                    dst,
                    seq,
                    attempts: attempt + 1,
                });
            }
            let backoff = VirtualTime::from_micros(self.retry.timeout_for(attempt));
            match lane {
                Lane::Cpu => {
                    let start = self.now;
                    self.now += backoff;
                    self.ledger.record(Phase::Retry, backoff);
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.emit(
                            Phase::Retry,
                            format!("timeout->{dst}"),
                            start,
                            self.now,
                            WireStats::default(),
                        );
                    }
                }
                Lane::Nic => self.nic.timeout_gap(backoff),
            }
            self.ledger.faults_mut().retries += 1;
            attempt += 1;
        }
    }

    fn push_frame(&mut self, dst: usize, frame: Frame) -> Result<(), CommError> {
        match self.fabric.push_frame(dst, self.rank, frame) {
            // A finished rank's mailbox closes whenever the event loop
            // happens to complete its task: a point on the host schedule
            // that the virtual clock cannot see. For a peer with a
            // scheduled timed death, `check_timed_death` is the sole
            // arbiter of whether a frame lands before the death, and it
            // has already ruled on this frame, so the push "delivers"
            // into the void of a rank that dies before the contents
            // matter. Surfacing the closed mailbox would leak the task
            // schedule into the outcome.
            Err(CommError::Disconnected { .. }) if self.death_time_us(dst).is_some() => Ok(()),
            other => other,
        }
    }

    /// Complete every transmission posted with [`Env::isend`]: the local
    /// clock jumps forward to the NIC-idle instant (if it is ahead) and the
    /// jump is booked into the **current phase** — wrap the call in
    /// `env.phase(Phase::Send, |env| env.wait_all())` to attribute the
    /// drain to the send phase. Any slice of the jump the NIC spent on ARQ
    /// recovery (retransmission wire time and backoff timeouts, see
    /// [`Env::isend`]) is booked to [`Phase::Retry`] instead, mirroring the
    /// blocking sender's attribution. A no-op with no posted sends, or
    /// when the CPU already ran past the NIC (in which case even recovery
    /// time was hidden and costs nothing).
    pub fn wait_all(&mut self) {
        let pre = self.now;
        let target = self.nic.free_at();
        // Compute the recovery slice before the drain clears the timeline.
        let retry = self.nic.retry_within(pre, target);
        self.nic.drain();
        let jump = target.saturating_sub(pre);
        if jump.as_micros() <= 0.0 {
            return;
        }
        self.now = target;
        let phase = self.current_phase;
        if retry.as_micros() > 0.0 {
            self.ledger.record(Phase::Retry, retry);
        }
        self.ledger.record(phase, jump.saturating_sub(retry));
        if let Some(tr) = self.tracer.as_mut() {
            tr.emit(
                phase,
                "wait_all".to_string(),
                pre,
                target,
                WireStats::default(),
            );
        }
    }

    /// Park this task while its undelivered payload bytes exceed
    /// [`crate::exec::SEND_BUDGET`]: the one await point of a rank task
    /// besides [`Env::recv_async`], for a sender that would otherwise run
    /// ahead of its receivers with every payload queued at once. Receivers
    /// popping its frames wake it once it is back under the budget, and
    /// the event loop releases it before it would declare a stall, so a
    /// budget wait can never deadlock. It charges nothing and touches no
    /// frame, so no ledger, trace or arrival stamp depends on it.
    pub fn send_budget(&self) -> impl Future<Output = ()> {
        self.fabric.budget_wait(self.rank)
    }

    /// Receive the next message from `src`: a task's await point for
    /// data. The event loop parks the task until the frame is pushed.
    ///
    /// Synchronises the local clock with the message's arrival time; any
    /// forward jump is booked as [`Phase::Wait`].
    ///
    /// With a [`FaultPlan`] installed, faulted frames are consumed here:
    /// dropped frames are skipped silently (the sender's timeout pays for
    /// them), corrupted frames fail the CRC32 check and are nacked, and
    /// clean frames are acked — all counted in the ledger's
    /// [`crate::timing::FaultStats`]. A sender that exhausted its retries
    /// surfaces as [`CommError::RetriesExhausted`]; a dead peer as
    /// [`CommError::PeerDead`]; a finished peer as
    /// [`CommError::Disconnected`]; a machine-wide deadlock as
    /// [`CommError::Stalled`].
    ///
    /// # Panics
    /// Panics if `src` is out of range (API misuse, like slice indexing).
    pub async fn recv_async(&mut self, src: usize) -> Result<Message, CommError> {
        assert!(src < self.nprocs, "recv from rank {src} of {}", self.nprocs);
        if self.is_rank_dead(src) {
            return Err(CommError::PeerDead { rank: src });
        }
        if self.is_rank_dead(self.rank) {
            return Err(CommError::PeerDead { rank: self.rank });
        }
        loop {
            let frame = self.fabric.frame_wait(self.rank, src).await?;
            if let Some(msg) = self.process_frame(src, frame)? {
                return Ok(msg);
            }
        }
    }

    /// Consume one frame from `src`: deliver it (`Ok(Some)`), absorb it
    /// and keep waiting (`Ok(None)` — injected drops and CRC-rejected
    /// corruptions), or surface the failure it encodes. Every charge the
    /// receive path makes happens here.
    fn process_frame(&mut self, src: usize, frame: Frame) -> Result<Option<Message>, CommError> {
        if let Some(rank) = frame.dead {
            return Err(CommError::PeerDead { rank });
        }
        if frame.failed {
            return Err(CommError::RetriesExhausted {
                src,
                dst: self.rank,
                seq: frame.seq,
                attempts: self.retry.max_retries + 1,
            });
        }
        if self.plan.is_none() {
            // Fast path: deliver directly.
            return Ok(Some(self.deliver(frame)));
        }
        match frame.injected {
            Some(FaultKind::Drop) => {
                // Lost on the wire: the receiver never saw it; only the
                // deterministic drop counter records it.
                self.ledger.faults_mut().drops += 1;
                return Ok(None);
            }
            Some(FaultKind::Delay(_)) => {
                self.ledger.faults_mut().delays += 1;
            }
            _ => {}
        }
        // CRC verification walks every payload element once.
        self.phase(Phase::Recv, |env| {
            env.charge_ops(frame.payload.elem_count())
        });
        let ok = frame.payload.crc32() == frame.crc;
        self.send_ack(src, AckMsg { seq: frame.seq, ok });
        if ok {
            return Ok(Some(self.deliver(frame)));
        }
        self.ledger.faults_mut().corrupts += 1;
        Ok(None)
    }

    /// Clock-sync to the frame's arrival and hand it to the caller.
    fn deliver(&mut self, frame: Frame) -> Message {
        let pre = self.now;
        let jump = frame.arrival.saturating_sub(pre);
        self.now = pre.max(frame.arrival);
        self.ledger.record(Phase::Wait, jump);
        if jump.as_micros() > 0.0 {
            if let Some(tr) = self.tracer.as_mut() {
                tr.emit(
                    Phase::Wait,
                    format!("<-{}", frame.src),
                    pre,
                    frame.arrival,
                    WireStats::default(),
                );
            }
        }
        Message {
            src: frame.src,
            payload: frame.payload,
            arrival: frame.arrival,
        }
    }

    /// Emit an ack/nack control frame and charge its wire cost (a one-
    /// element control message) to [`Phase::Recv`].
    fn send_ack(&mut self, src: usize, ack: AckMsg) {
        if ack.ok {
            self.ledger.faults_mut().acks += 1;
        } else {
            self.ledger.faults_mut().nacks += 1;
        }
        let cost = self.model.message_cost(1);
        self.now += cost;
        self.ledger.record(Phase::Recv, cost);
        // The peer may already have finished — a vanished ack listener is
        // not an error; acks are confirmations, not data.
        self.fabric.push_ack(src, self.rank, ack);
    }

    /// Opportunistically drain delivery confirmations from `dst`. The
    /// fault plan already told the sender everything the acks would (the
    /// decisions are shared), so these only sanity-check the protocol.
    fn drain_acks(&self, dst: usize) {
        let sent = self.send_seq.get(&dst).copied().unwrap_or(0);
        while let Some(ack) = self.fabric.pop_ack(self.rank, dst) {
            debug_assert!(
                ack.seq < sent,
                "ack for a frame rank {} never sent to {dst}",
                self.rank
            );
        }
    }

    /// Immutable view of the ledger accumulated so far.
    pub fn ledger(&self) -> &PhaseLedger {
        &self.ledger
    }

    /// Finalize the rank: drain stray acks on the links this rank sent on
    /// (acks only ever arrive there), fold arena statistics into the
    /// metrics registry and close out the trace (when tracing).
    fn into_parts(mut self) -> (PhaseLedger, Option<RankTrace>) {
        if self.plan.is_some() {
            for &dst in self.send_seq.keys() {
                self.drain_acks(dst);
            }
        }
        let trace = self.tracer.take().map(|mut tr| {
            let st = self.arena.stats();
            tr.metrics_mut().count("arena.checkouts", st.checkouts);
            tr.metrics_mut().count("arena.reuses", st.reuses);
            tr.metrics_mut().count("arena.recycles", st.recycles);
            tr.finish(&self.ledger)
        });
        (self.ledger, trace)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn model() -> MachineModel {
        MachineModel::new(10.0, 2.0, 1.0)
    }

    /// Run the rank program `f` on every processor of `m`.
    pub(crate) fn tasks<R>(
        m: &Multicomputer,
        f: impl for<'e> Fn(&'e mut Env) -> RankTask<'e, R>,
    ) -> (Vec<R>, Vec<PhaseLedger>) {
        m.run_tasks_with_ledgers(&f, |f, env| f(env))
    }

    #[test]
    fn ranks_and_sizes() {
        let m = Multicomputer::virtual_machine(5, model());
        let ranks = m.run(|env| {
            assert_eq!(env.nprocs(), 5);
            env.rank()
        });
        assert_eq!(ranks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn point_to_point_round_trip() {
        let m = Multicomputer::virtual_machine(2, model());
        let (results, _) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut b = PackBuffer::new();
                    b.push_f64(3.25);
                    env.send(1, b).unwrap();
                    let back = env.recv_async(1).await.unwrap();
                    back.payload.cursor().read_f64()
                } else {
                    let msg = env.recv_async(0).await.unwrap();
                    let v = msg.payload.cursor().read_f64();
                    let mut b = PackBuffer::new();
                    b.push_f64(v * 2.0);
                    env.send(0, b).unwrap();
                    v
                }
            })
        });
        assert_eq!(results, vec![6.5, 3.25]);
    }

    #[test]
    fn virtual_send_cost_is_charged() {
        let m = Multicomputer::virtual_machine(2, model());
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64_slice(&[1, 2, 3, 4, 5]);
                    env.send(1, b).unwrap();
                } else {
                    env.recv_async(0).await.unwrap();
                }
            })
        });
        // t_startup + 5 elems * t_data = 10 + 10 = 20 µs at the sender.
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 20.0);
        // Receiver started at 0 and the message arrived at 20: 20 µs wait.
        assert_eq!(ledgers[1].get(Phase::Wait).as_micros(), 20.0);
    }

    #[test]
    fn charge_ops_books_current_phase() {
        let m = Multicomputer::virtual_machine(1, model());
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                env.phase(Phase::Compress, |env| env.charge_ops(7));
                env.charge_ops(3); // outside any phase block -> Other
            })
        });
        assert_eq!(ledgers[0].get(Phase::Compress).as_micros(), 7.0);
        assert_eq!(ledgers[0].get(Phase::Other).as_micros(), 3.0);
    }

    #[test]
    fn begin_and_end_phase_span_an_await() {
        let m = Multicomputer::virtual_machine(2, model());
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    env.send(1, PackBuffer::new()).unwrap();
                } else {
                    let prev = env.begin_phase(Phase::Unpack);
                    env.recv_async(0).await.unwrap();
                    env.charge_ops(4);
                    env.end_phase(prev);
                    env.charge_ops(1);
                }
            })
        });
        assert_eq!(ledgers[1].get(Phase::Wait).as_micros(), 10.0);
        assert_eq!(ledgers[1].get(Phase::Unpack).as_micros(), 4.0);
        assert_eq!(ledgers[1].get(Phase::Other).as_micros(), 1.0);
    }

    #[test]
    fn virtual_clocks_are_deterministic() {
        // Arrival times depend only on causality, so repeated runs agree
        // exactly.
        let run_once = || {
            let m = Multicomputer::virtual_machine(4, model());
            tasks(&m, |env| {
                Box::pin(async move {
                    if env.rank() == 0 {
                        for dst in 1..env.nprocs() {
                            let mut b = PackBuffer::new();
                            b.push_u64_slice(&vec![0; dst * 10]);
                            env.send(dst, b).unwrap();
                        }
                    } else {
                        env.recv_async(0).await.unwrap();
                        env.charge_ops(100);
                    }
                })
            })
            .1
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
    }

    #[test]
    fn self_send_works() {
        let m = Multicomputer::virtual_machine(3, model());
        let (results, _) = tasks(&m, |env| {
            Box::pin(async move {
                let mut b = PackBuffer::new();
                b.push_u64(env.rank() as u64);
                env.send(env.rank(), b).unwrap();
                let me = env.rank();
                env.recv_async(me)
                    .await
                    .unwrap()
                    .payload
                    .cursor()
                    .read_u64()
            })
        });
        assert_eq!(results, vec![0, 1, 2]);
    }

    #[test]
    fn messages_from_same_source_preserve_order() {
        let m = Multicomputer::virtual_machine(2, model());
        let (results, _) = tasks(&m, |env| {
            Box::pin(async move {
                let mut got = Vec::new();
                if env.rank() == 0 {
                    for i in 0..10u64 {
                        let mut b = PackBuffer::new();
                        b.push_u64(i);
                        env.send(1, b).unwrap();
                    }
                } else {
                    for _ in 0..10 {
                        let msg = env.recv_async(0).await.unwrap();
                        got.push(msg.payload.cursor().read_u64());
                    }
                }
                got
            })
        });
        assert_eq!(results[1], (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn message_src_is_stamped() {
        let m = Multicomputer::virtual_machine(3, model());
        let (results, _) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 2 {
                    let a = env.recv_async(0).await.unwrap().src;
                    let b = env.recv_async(1).await.unwrap().src;
                    (a, b)
                } else {
                    env.send(2, PackBuffer::new()).unwrap();
                    (usize::MAX, usize::MAX)
                }
            })
        });
        assert_eq!(results[2], (0, 1));
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = Multicomputer::virtual_machine(0, model());
    }

    #[test]
    fn topology_hop_cost_charged_on_send() {
        // Ring of 4 with t_hop = 5: 0→2 is 2 hops.
        let hop_model = MachineModel::new(10.0, 2.0, 1.0).with_hop_cost(5.0);
        let m = Multicomputer::virtual_with_topology(4, hop_model, Topology::Ring);
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64_slice(&[1, 2, 3]);
                    env.send(2, b).unwrap();
                } else if env.rank() == 2 {
                    env.recv_async(0).await.unwrap();
                }
            })
        });
        // 10 startup + 2 hops * 5 + 3 elems * 2 = 26 µs.
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 26.0);
    }

    #[test]
    #[should_panic(expected = "topology grid")]
    fn mismatched_topology_grid_rejected() {
        let _ = Multicomputer::virtual_with_topology(6, model(), Topology::Mesh2D { pr: 2, pc: 2 });
    }

    #[test]
    fn nested_phases_restore_outer() {
        let m = Multicomputer::virtual_machine(1, model());
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                env.phase(Phase::Pack, |env| {
                    env.charge_ops(1);
                    env.phase(Phase::Unpack, |env| env.charge_ops(2));
                    env.charge_ops(4);
                });
            })
        });
        assert_eq!(ledgers[0].get(Phase::Pack).as_micros(), 5.0);
        assert_eq!(ledgers[0].get(Phase::Unpack).as_micros(), 2.0);
    }

    #[test]
    fn wire_stats_count_messages_elements_and_bytes() {
        let m = Multicomputer::virtual_machine(2, model());
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64_slice(&[1, 2, 3]); // 3 elems, 24 bytes
                    env.send(1, b).unwrap();
                    let mut c = PackBuffer::new();
                    c.push_raw(&[b'S', b'2', 0]);
                    c.push_varint(300); // 1 elem, 3 header + 2 varint bytes
                    env.send(1, c).unwrap();
                } else {
                    env.recv_async(0).await.unwrap();
                    env.recv_async(0).await.unwrap();
                }
            })
        });
        let w = ledgers[0].wire();
        assert_eq!(
            w,
            WireStats {
                messages: 2,
                elements: 4,
                bytes: 29
            }
        );
        assert!(ledgers[1].wire().is_zero(), "receiving transmits nothing");
    }

    #[test]
    fn wire_stats_count_retransmissions() {
        let plan = FaultPlan::new(0).with_drop(1.0);
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                timeout_us: 10.0,
                backoff: 2.0,
            });
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64_slice(&[1, 2, 3]);
                    let _ = env.send(1, b);
                } else {
                    let _ = env.recv_async(0).await;
                }
            })
        });
        // 3 physical attempts of the same 3-element, 24-byte frame; the
        // poison frame is control traffic, not data.
        assert_eq!(
            ledgers[0].wire(),
            WireStats {
                messages: 3,
                elements: 9,
                bytes: 72
            }
        );
    }

    #[test]
    fn arena_persists_across_runs() {
        let m = Multicomputer::virtual_machine(2, model());
        m.run(|env| {
            let mut b = env.arena().checkout(256);
            b.push_u64(env.rank() as u64);
            let arena = env.arena();
            arena.recycle(b);
        });
        // The second run sees the allocations recycled by the first.
        let pooled = m.run(|env| env.arena().pooled());
        assert_eq!(pooled, vec![1, 1]);
        assert_eq!(m.arena(0).pooled(), 1);
    }

    #[test]
    fn run_scales_past_a_thousand_ranks() {
        let m = Multicomputer::virtual_machine(2048, model());
        let ranks = m.run(|env| env.rank());
        assert!(ranks.into_iter().eq(0..2048));
    }

    // ---- fault injection & reliable delivery ----

    use crate::fault::LinkProbs;

    /// A plan whose every decision is "no fault": exercises the reliable
    /// layer (CRC, acks) without any injected trouble.
    fn quiet_plan() -> FaultPlan {
        FaultPlan::new(1)
    }

    #[test]
    fn reliable_layer_round_trips_without_faults() {
        let m = Multicomputer::virtual_machine(2, model()).with_faults(quiet_plan());
        let (results, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64_slice(&[1, 2, 3]);
                    env.send(1, b).unwrap();
                    0
                } else {
                    let msg = env.recv_async(0).await.unwrap();
                    msg.payload.cursor().read_u64() as usize
                }
            })
        });
        assert_eq!(results, vec![0, 1]);
        assert_eq!(ledgers[1].faults().acks, 1);
        assert_eq!(ledgers[1].faults().nacks, 0);
        assert!(ledgers[0].faults().is_quiet());
    }

    #[test]
    fn ack_drain_on_own_links_keeps_ledgers_and_acks() {
        // Under a quiet plan at p = 4, rank 2 sends to rank 1 only, and the
        // other two ranks stay idle. Finishing drains acks on rank 2's one
        // link; every ledger must equal the same exchange on a two-rank
        // machine (or a fresh ledger for the idle ranks), with one ack per
        // message on the receiver.
        fn exchange(env: &mut Env, from: usize, to: usize) -> RankTask<'_, ()> {
            Box::pin(async move {
                if env.rank() == from {
                    for i in 0..3u64 {
                        let mut b = PackBuffer::new();
                        b.push_u64(i);
                        env.phase(Phase::Send, |env| env.send(to, b)).unwrap();
                    }
                } else if env.rank() == to {
                    for i in 0..3u64 {
                        let msg = env.recv_async(from).await.unwrap();
                        assert_eq!(msg.payload.cursor().read_u64(), i);
                    }
                }
            })
        }
        let m4 = Multicomputer::virtual_machine(4, model()).with_faults(quiet_plan());
        let (_, four) = tasks(&m4, |env| exchange(env, 2, 1));
        let m2 = Multicomputer::virtual_machine(2, model()).with_faults(quiet_plan());
        let (_, two) = tasks(&m2, |env| exchange(env, 0, 1));
        assert_eq!(four[2], two[0]);
        assert_eq!(four[1], two[1]);
        assert_eq!(four[0], PhaseLedger::new());
        assert_eq!(four[3], PhaseLedger::new());
        assert_eq!(four[1].faults().acks, 3);
        assert!(four[2].faults().is_quiet());
        assert_eq!(four, tasks(&m4, |env| exchange(env, 2, 1)).1);
    }

    /// Rank 0 sends `n` one-`u64` messages carrying `0..n` to rank 1 (as
    /// nonblocking posts drained once when `nonblocking`); rank 1 returns
    /// what it received, in order.
    fn stream_task(env: &mut Env, n: u64, nonblocking: bool) -> RankTask<'_, Vec<u64>> {
        Box::pin(async move {
            let mut got = Vec::new();
            if env.rank() == 0 {
                for i in 0..n {
                    let mut b = PackBuffer::new();
                    b.push_u64(i);
                    if nonblocking {
                        env.phase(Phase::Send, |env| env.isend(1, b)).unwrap();
                    } else {
                        env.phase(Phase::Send, |env| env.send(1, b)).unwrap();
                    }
                }
                env.phase(Phase::Send, |env| env.wait_all());
            } else {
                for _ in 0..n {
                    let msg = env.recv_async(0).await.unwrap();
                    got.push(msg.payload.cursor().read_u64());
                }
            }
            got
        })
    }

    #[test]
    fn dropped_messages_are_retried_and_charged() {
        // Certain drop on the first attempt of every frame would livelock;
        // use a high-but-not-certain rate and a generous budget instead, on
        // a fixed seed so the test is stable.
        let plan = FaultPlan::new(7).with_drop(0.5);
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 16,
                timeout_us: 50.0,
                backoff: 2.0,
            });
        let (results, ledgers) = tasks(&m, |env| stream_task(env, 20, false));
        assert_eq!(results[1], (0..20).collect::<Vec<_>>());
        let retries = ledgers[0].faults().retries;
        assert!(retries > 0, "a 50% drop rate must force retries");
        assert_eq!(
            ledgers[1].faults().drops,
            retries,
            "every retry answers one lost frame"
        );
        assert!(
            ledgers[0].get(Phase::Retry).as_micros() > 0.0,
            "retries must be charged"
        );
    }

    #[test]
    fn corrupted_messages_fail_crc_and_are_nacked() {
        let plan = FaultPlan::new(3).with_corrupt(0.5);
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 16,
                timeout_us: 10.0,
                backoff: 1.5,
            });
        let (results, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                let mut got = Vec::new();
                if env.rank() == 0 {
                    for i in 0..20u64 {
                        let mut b = PackBuffer::new();
                        b.push_u64(i * 1000);
                        b.push_f64(i as f64);
                        env.send(1, b).unwrap();
                    }
                } else {
                    for _ in 0..20 {
                        let msg = env.recv_async(0).await.unwrap();
                        let mut c = msg.payload.cursor();
                        got.push((c.read_u64(), c.read_f64()));
                    }
                }
                got
            })
        });
        let want: Vec<(u64, f64)> = (0..20).map(|i| (i * 1000, i as f64)).collect();
        assert_eq!(results[1], want, "all payloads must arrive uncorrupted");
        assert!(
            ledgers[1].faults().corrupts > 0,
            "a 50% corrupt rate must hit some frames"
        );
        assert_eq!(ledgers[1].faults().nacks, ledgers[1].faults().corrupts);
        assert_eq!(ledgers[1].faults().acks, 20);
    }

    #[test]
    fn delayed_messages_arrive_late_but_intact() {
        let plan = FaultPlan::new(5).with_delay(1.0, 500.0);
        let m = Multicomputer::virtual_machine(2, model()).with_faults(plan);
        let (results, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64(9);
                    env.send(1, b).unwrap();
                    0.0
                } else {
                    env.recv_async(0).await.unwrap();
                    env.now().as_micros()
                }
            })
        });
        // Send costs 10 + 1*2 = 12 µs, plus the injected 500 µs delay.
        assert!(
            results[1] >= 512.0,
            "receiver clock must include the delay, got {}",
            results[1]
        );
        assert_eq!(ledgers[1].faults().delays, 1);
    }

    #[test]
    fn retries_exhausted_errors_both_sides_without_deadlock() {
        let plan = FaultPlan::new(0).with_link(
            0,
            1,
            LinkProbs {
                drop: 1.0,
                ..Default::default()
            },
        );
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                timeout_us: 10.0,
                backoff: 2.0,
            });
        let (results, _) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64(1);
                    env.send(1, b).map(|_| 0u64).map_err(|e| e.to_string())
                } else {
                    env.recv_async(0)
                        .await
                        .map(|m| m.payload.cursor().read_u64())
                        .map_err(|e| e.to_string())
                }
            })
        });
        let sender_err = results[0].clone().unwrap_err();
        let receiver_err = results[1].clone().unwrap_err();
        assert!(sender_err.contains("after 3 attempts"), "{sender_err}");
        assert!(receiver_err.contains("undelivered"), "{receiver_err}");
    }

    #[test]
    fn exhausted_send_charges_backoff_series() {
        let plan = FaultPlan::new(0).with_drop(1.0);
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                timeout_us: 10.0,
                backoff: 2.0,
            });
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64_slice(&[1, 2, 3]);
                    let _ = env.send(1, b);
                } else {
                    let _ = env.recv_async(0).await;
                }
            })
        });
        // Attempt 0 books to Send (10 + 3*2 = 16 µs); attempts 1-2 book
        // their wire cost to Retry along with timeouts 10 and 20 µs:
        // Retry = 16 + 16 + 10 + 20 = 62 µs.
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 16.0);
        assert_eq!(ledgers[0].get(Phase::Retry).as_micros(), 62.0);
        assert_eq!(ledgers[0].faults().retries, 2);
    }

    /// Rank 0 sends ten 5-element messages to every other rank (as
    /// nonblocking posts with compute in between when `nonblocking`);
    /// the others return the element count they received.
    fn fan_in_task(env: &mut Env, nonblocking: bool) -> RankTask<'_, u64> {
        Box::pin(async move {
            if env.rank() == 0 {
                for dst in 1..env.nprocs() {
                    for i in 0..10u64 {
                        let mut b = PackBuffer::new();
                        b.push_u64_slice(&[i; 5]);
                        if nonblocking {
                            env.phase(Phase::Send, |env| env.isend(dst, b)).unwrap();
                        } else {
                            env.send(dst, b).unwrap();
                        }
                    }
                    if nonblocking {
                        env.phase(Phase::Encode, |env| env.charge_ops(37));
                    }
                }
                env.phase(Phase::Send, |env| env.wait_all());
                0
            } else {
                let mut got = 0;
                for _ in 0..10 {
                    got += env.recv_async(0).await.unwrap().payload.elem_count();
                }
                got
            }
        })
    }

    fn noisy_machine() -> Multicomputer {
        let plan = FaultPlan::new(11)
            .with_drop(0.3)
            .with_corrupt(0.2)
            .with_delay(0.1, 80.0);
        Multicomputer::virtual_machine(3, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 20,
                timeout_us: 25.0,
                backoff: 2.0,
            })
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run_once = || tasks(&noisy_machine(), |env| fan_in_task(env, false));
        let (ra, la) = run_once();
        let (rb, lb) = run_once();
        assert_eq!(ra, rb);
        assert_eq!(
            la, lb,
            "ledgers (including fault stats) must be byte-identical"
        );
    }

    #[test]
    fn dead_peer_errors_immediately() {
        let plan = FaultPlan::new(0).with_dead_rank(1);
        let m = Multicomputer::virtual_machine(3, model()).with_faults(plan);
        let (results, _) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let send_err = env.send(1, PackBuffer::new()).unwrap_err();
                    let recv_err = env.recv_async(1).await.unwrap_err();
                    assert_eq!(send_err, CommError::PeerDead { rank: 1 });
                    assert_eq!(recv_err, CommError::PeerDead { rank: 1 });
                    // Traffic to live ranks is unaffected.
                    env.send(2, PackBuffer::new()).unwrap();
                    "sent"
                } else if env.rank() == 2 {
                    env.recv_async(0).await.unwrap();
                    "got"
                } else {
                    // The dead rank itself cannot communicate.
                    assert!(env.send(0, PackBuffer::new()).is_err());
                    "dead"
                }
            })
        });
        assert_eq!(results, vec!["sent", "dead", "got"]);
    }

    #[test]
    fn alive_ranks_reflect_plan() {
        let plan = FaultPlan::new(0).with_dead_rank(0).with_dead_rank(2);
        let m = Multicomputer::virtual_machine(4, model()).with_faults(plan);
        let alive = m.run(|env| (env.alive_ranks(), env.is_rank_dead(env.rank())));
        assert_eq!(alive[1].0, vec![1, 3]);
        assert_eq!(
            alive.iter().map(|(_, dead)| *dead).collect::<Vec<_>>(),
            vec![true, false, true, false]
        );
        assert_eq!(m.run(|env| env.lowest_alive_rank()), vec![Some(1); 4]);
        let all_dead = FaultPlan::new(0).with_dead_rank(0).with_dead_rank(1);
        let m = Multicomputer::virtual_machine(2, model()).with_faults(all_dead);
        assert_eq!(m.run(|env| env.lowest_alive_rank()), vec![None; 2]);
    }

    // ---- nonblocking sends (isend / wait_all) ----

    #[test]
    fn isend_overlaps_compute_with_transfer() {
        // Sender posts a 5-elem message (cost 20 µs), computes 12 µs while
        // the NIC drains, then waits: makespan is max(20, 12) = 20 µs, not
        // the blocking 20 + 12 = 32 µs.
        let m = Multicomputer::virtual_machine(2, model());
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64_slice(&[1, 2, 3, 4, 5]);
                    env.phase(Phase::Send, |env| env.isend(1, b)).unwrap();
                    env.phase(Phase::Encode, |env| env.charge_ops(12));
                    env.phase(Phase::Send, |env| env.wait_all());
                } else {
                    env.recv_async(0).await.unwrap();
                }
            })
        });
        // isend itself is free; wait_all books the 20 − 12 = 8 µs drain.
        assert_eq!(ledgers[0].get(Phase::Encode).as_micros(), 12.0);
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 8.0);
        assert_eq!(ledgers[0].busy_total().as_micros(), 20.0);
        // The receiver still observes arrival at t = 20 µs.
        assert_eq!(ledgers[1].get(Phase::Wait).as_micros(), 20.0);
    }

    #[test]
    fn isend_serialises_on_the_nic_and_preserves_wire_stats() {
        // Two back-to-back posts share the outgoing link: arrivals at 20
        // and 20 + 12 = 32 µs, exactly the blocking totals — only the
        // sender-side attribution moves.
        let m = Multicomputer::virtual_machine(3, model());
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut a = PackBuffer::new();
                    a.push_u64_slice(&[1, 2, 3, 4, 5]); // 10 + 5·2 = 20 µs
                    let mut b = PackBuffer::new();
                    b.push_u64(9); // 10 + 1·2 = 12 µs
                    env.phase(Phase::Send, |env| {
                        env.isend(1, a)?;
                        env.isend(2, b)?;
                        env.wait_all();
                        Ok::<(), CommError>(())
                    })
                    .unwrap();
                } else {
                    env.recv_async(0).await.unwrap();
                }
            })
        });
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 32.0);
        assert_eq!(
            ledgers[0].wire(),
            WireStats {
                messages: 2,
                elements: 6,
                bytes: 48
            }
        );
        assert_eq!(ledgers[1].get(Phase::Wait).as_micros(), 20.0);
        assert_eq!(ledgers[2].get(Phase::Wait).as_micros(), 32.0);
    }

    #[test]
    fn wait_all_is_a_noop_when_cpu_ran_past_the_nic() {
        let m = Multicomputer::virtual_machine(2, model());
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    env.phase(Phase::Send, |env| env.isend(1, PackBuffer::new()))
                        .unwrap();
                    env.charge_ops(1_000); // sails far past the 10 µs arrival
                    env.phase(Phase::Send, |env| env.wait_all());
                    env.wait_all(); // second drain: nothing left
                } else {
                    env.recv_async(0).await.unwrap();
                }
            })
        });
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 0.0);
        assert_eq!(ledgers[0].busy_total().as_micros(), 1_000.0);
    }

    // ---- async ARQ: nonblocking sends under a fault plan ----

    #[test]
    fn async_arq_matches_blocking_totals_when_not_overlapped() {
        // With no compute between the posts and the wait, the NIC schedule
        // is exactly the blocking sender's timeline, so the ledgers —
        // phases, wire stats, fault stats — must be bit-identical.
        let run = |nonblocking: bool| {
            let plan = FaultPlan::new(7).with_drop(0.5);
            let m = Multicomputer::virtual_machine(2, model())
                .with_faults(plan)
                .with_retry_policy(RetryPolicy {
                    max_retries: 16,
                    timeout_us: 50.0,
                    backoff: 2.0,
                });
            tasks(&m, |env| stream_task(env, 8, nonblocking)).1
        };
        let (nb, blocking) = (run(true), run(false));
        assert!(
            blocking[0].faults().retries > 0,
            "the seed must actually force retries"
        );
        assert_eq!(nb, blocking);
    }

    #[test]
    fn async_arq_exhaustion_errors_at_post_time_and_charges_backoff_series() {
        // The nonblocking twin of exhausted_send_charges_backoff_series:
        // certain drop, 3 attempts of a 16 µs frame with 10/20 µs backoffs.
        // Exhaustion surfaces from isend itself; wait_all splits the drain
        // into Send = 16 and Retry = 16 + 10 + 16 + 20 = 62 µs.
        let plan = FaultPlan::new(0).with_drop(1.0);
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                timeout_us: 10.0,
                backoff: 2.0,
            });
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64_slice(&[1, 2, 3]);
                    let err = env.phase(Phase::Send, |env| env.isend(1, b)).unwrap_err();
                    assert!(matches!(
                        err,
                        CommError::RetriesExhausted { attempts: 3, .. }
                    ));
                    env.phase(Phase::Send, |env| env.wait_all());
                } else {
                    let err = env.recv_async(0).await.unwrap_err();
                    assert!(matches!(err, CommError::RetriesExhausted { .. }));
                }
            })
        });
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 16.0);
        assert_eq!(ledgers[0].get(Phase::Retry).as_micros(), 62.0);
        assert_eq!(ledgers[0].faults().retries, 2);
        assert_eq!(
            ledgers[0].wire(),
            WireStats {
                messages: 3,
                elements: 9,
                bytes: 72
            }
        );
    }

    #[test]
    fn async_arq_recovery_hides_behind_compute() {
        // ARQ recovery runs on the NIC while the CPU computes, so a long
        // enough compute block swallows wire time, timeouts and
        // retransmissions alike.
        let plan = FaultPlan::new(7).with_drop(0.3);
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 16,
                timeout_us: 10.0,
                backoff: 1.5,
            });
        let (_, ledgers) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    for i in 0..12u64 {
                        let mut b = PackBuffer::new();
                        b.push_u64(i);
                        env.phase(Phase::Send, |env| env.isend(1, b)).unwrap();
                    }
                    env.phase(Phase::Encode, |env| env.charge_ops(10_000));
                    env.phase(Phase::Send, |env| env.wait_all());
                } else {
                    for _ in 0..12 {
                        env.recv_async(0).await.unwrap();
                    }
                }
            })
        });
        assert!(
            ledgers[0].faults().retries > 0,
            "a 30% drop rate over 12 messages must force retries"
        );
        // Everything the NIC did — including recovery — was hidden.
        assert_eq!(ledgers[0].get(Phase::Retry).as_micros(), 0.0);
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 0.0);
        assert_eq!(ledgers[0].busy_total().as_micros(), 10_000.0);
    }

    #[test]
    fn async_fault_runs_are_bit_deterministic() {
        let run_once = || tasks(&noisy_machine(), |env| fan_in_task(env, true));
        let (ra, la) = run_once();
        let (rb, lb) = run_once();
        assert_eq!(ra, rb);
        assert_eq!(la, lb, "async fault ledgers must be byte-identical");
        // And the data still arrives intact.
        assert_eq!(ra[1], 50);
        assert_eq!(ra[2], 50);
    }

    // ---- timed rank death ----

    #[test]
    fn sends_past_a_timed_death_error_on_both_sides() {
        // 1-elem frames cost 12 µs: the first lands at 12 ≤ 20, the second
        // would land at 24 > 20 — rank 1 is gone. The sender detects it,
        // the dying receiver observes it via the death notice.
        let plan = FaultPlan::new(0).with_death_at(1, 20.0);
        let m = Multicomputer::virtual_machine(2, model()).with_faults(plan);
        let (results, _) = tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64(1);
                    env.send(1, b).unwrap();
                    let mut b = PackBuffer::new();
                    b.push_u64(2);
                    let err = env.send(1, b).unwrap_err();
                    assert_eq!(err, CommError::PeerDead { rank: 1 });
                    "detected"
                } else {
                    let first = env.recv_async(0).await.unwrap();
                    assert_eq!(first.payload.cursor().read_u64(), 1);
                    let err = env.recv_async(0).await.unwrap_err();
                    assert_eq!(err, CommError::PeerDead { rank: 1 });
                    "observed"
                }
            })
        });
        assert_eq!(results, vec!["detected", "observed"]);
    }

    #[test]
    fn isend_respects_timed_death_on_the_nic_schedule() {
        // Both frames are posted at t = 0, but the NIC serialises them:
        // scheduled arrivals 12 and 24 µs, so the second post already
        // cannot land before rank 1 dies at t = 20.
        let plan = FaultPlan::new(0).with_death_at(1, 20.0);
        let m = Multicomputer::virtual_machine(2, model()).with_faults(plan);
        tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    env.phase(Phase::Send, |env| {
                        let mut b = PackBuffer::new();
                        b.push_u64(1);
                        env.isend(1, b).unwrap();
                        let mut b = PackBuffer::new();
                        b.push_u64(2);
                        let err = env.isend(1, b).unwrap_err();
                        assert_eq!(err, CommError::PeerDead { rank: 1 });
                        env.wait_all();
                    });
                } else {
                    env.recv_async(0).await.unwrap();
                    let err = env.recv_async(0).await.unwrap_err();
                    assert_eq!(err, CommError::PeerDead { rank: 1 });
                }
            })
        });
    }

    #[test]
    fn a_rank_past_its_own_death_cannot_send() {
        let plan = FaultPlan::new(0).with_death_at(0, 50.0);
        let m = Multicomputer::virtual_machine(2, model()).with_faults(plan);
        tasks(&m, |env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    env.charge_ops(100); // sail past the death instant
                    let err = env.send(1, PackBuffer::new()).unwrap_err();
                    assert_eq!(err, CommError::PeerDead { rank: 0 });
                } else {
                    let err = env.recv_async(0).await.unwrap_err();
                    assert_eq!(err, CommError::PeerDead { rank: 0 });
                }
            })
        });
    }

    #[test]
    fn a_death_inside_the_first_backoff_fails_only_the_blocking_retransmission() {
        // Rank 0 dies at t = 20. The first attempt (wire 0..12) is
        // dropped and its 25 µs backoff runs past the death. A blocking
        // sender checks its own death at each attempt's wire start (37),
        // so the retransmission fails; a nonblocking post commits the
        // whole schedule at post time (0), before the death.
        let plan = |seed| FaultPlan::new(seed).with_drop(0.5).with_death_at(0, 20.0);
        let seed = (0..)
            .find(|&s| {
                let p = plan(s);
                p.decide(0, 1, 0, 0, Phase::Send) == Some(FaultKind::Drop)
                    && p.decide(0, 1, 0, 1, Phase::Send).is_none()
            })
            .unwrap();
        let retry = RetryPolicy {
            max_retries: 3,
            timeout_us: 25.0,
            backoff: 2.0,
        };
        for nonblocking in [false, true] {
            let m = Multicomputer::virtual_machine(2, model())
                .with_faults(plan(seed))
                .with_retry_policy(retry);
            let (results, _) = tasks(&m, |env| {
                Box::pin(async move {
                    if env.rank() == 0 {
                        let mut b = PackBuffer::new();
                        b.push_u64(7);
                        env.phase(Phase::Send, |env| {
                            let r = if nonblocking {
                                env.isend(1, b)
                            } else {
                                env.send(1, b)
                            };
                            env.wait_all();
                            r.map(|()| 0)
                        })
                    } else {
                        env.recv_async(0)
                            .await
                            .map(|m| m.payload.cursor().read_u64())
                    }
                })
            });
            if nonblocking {
                assert_eq!(results, vec![Ok(0), Ok(7)]);
            } else {
                let dead = Err(CommError::PeerDead { rank: 0 });
                assert_eq!(results, vec![dead.clone(), dead]);
            }
        }
    }

    #[test]
    fn timed_death_runs_are_deterministic() {
        let run_once = || {
            let plan = FaultPlan::new(3).with_drop(0.2).with_death_at(1, 300.0);
            let m = Multicomputer::virtual_machine(3, model())
                .with_faults(plan)
                .with_retry_policy(RetryPolicy::with_retries(10));
            tasks(&m, |env| {
                Box::pin(async move {
                    if env.rank() == 0 {
                        let mut delivered = 0u64;
                        for i in 0..20u64 {
                            let mut b = PackBuffer::new();
                            b.push_u64_slice(&[i; 4]);
                            let dst = 1 + (i % 2) as usize;
                            if env.send(dst, b).is_ok() {
                                delivered += 1;
                            }
                        }
                        delivered
                    } else {
                        let mut got = 0u64;
                        while let Ok(m) = env.recv_async(0).await {
                            got += m.payload.elem_count();
                        }
                        got
                    }
                })
            })
        };
        let (ra, la) = run_once();
        let (rb, lb) = run_once();
        assert_eq!(ra, rb);
        assert_eq!(la, lb);
        // Rank 2 outlives the run and keeps receiving after rank 1 died.
        assert!(ra[2] > ra[1], "{ra:?}");
    }

    #[test]
    fn isend_to_dead_rank_errors() {
        let plan = FaultPlan::new(0).with_dead_rank(1);
        let m = Multicomputer::virtual_machine(2, model()).with_faults(plan);
        let errs = m.run(|env| {
            if env.rank() == 0 {
                matches!(
                    env.isend(1, PackBuffer::new()),
                    Err(CommError::PeerDead { rank: 1 })
                )
            } else {
                true
            }
        });
        assert!(errs[0]);
    }

    // ---- event-loop scheduling ----

    /// A rank program exercising sends, faults and receives: rank 0 fans
    /// out batches, everyone else receives until their link closes.
    fn fan_out_task(env: &mut Env) -> RankTask<'_, u64> {
        Box::pin(async move {
            if env.rank() == 0 {
                let mut delivered = 0u64;
                for dst in 1..env.nprocs() {
                    for i in 0..4u64 {
                        let mut b = PackBuffer::new();
                        b.push_u64_slice(&[i; 3]);
                        if env.phase(Phase::Send, |env| env.send(dst, b)).is_ok() {
                            delivered += 1;
                        }
                    }
                }
                delivered
            } else {
                let mut got = 0u64;
                for _ in 0..4 {
                    match env.recv_async(0).await {
                        Ok(m) => got += m.payload.elem_count(),
                        Err(_) => break,
                    }
                }
                got
            }
        })
    }

    #[test]
    fn fan_out_under_faults_delivers_every_batch() {
        let plan = FaultPlan::new(11)
            .with_drop(0.3)
            .with_corrupt(0.2)
            .with_delay(0.1, 80.0);
        let m = Multicomputer::virtual_machine(4, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 20,
                timeout_us: 25.0,
                backoff: 2.0,
            });
        let (results, ledgers) = tasks(&m, fan_out_task);
        assert_eq!(results, vec![12, 12, 12, 12], "4 messages x 3 elements");
        assert!(
            ledgers[0].faults().retries > 0,
            "the seed must actually force retries"
        );
    }

    #[test]
    fn event_loop_runs_ten_thousand_ranks() {
        // Far past any OS thread limit: a 10k-rank ring relay on one
        // thread. Rank 0 seeds the token; everyone adds one and forwards.
        let m = Multicomputer::virtual_machine(10_000, model());
        let results = m.run_tasks(&(), |(), env| {
            Box::pin(async move {
                let me = env.rank();
                let p = env.nprocs();
                if me == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64(0);
                    env.send(1, b).unwrap();
                    0
                } else {
                    let got = env.recv_async(me - 1).await.unwrap();
                    let v = got.payload.cursor().read_u64() + 1;
                    if me + 1 < p {
                        let mut b = PackBuffer::new();
                        b.push_u64(v);
                        env.send(me + 1, b).unwrap();
                    }
                    v
                }
            })
        });
        assert_eq!(results[9_999], 9_999);
    }

    #[test]
    fn event_loop_detects_protocol_stalls_structurally() {
        // Both ranks wait on each other without anyone sending — a
        // deliberate protocol bug that would deadlock forever. Detection
        // is structural (everyone parked), so it burns no real time.
        let m = Multicomputer::virtual_machine(2, model());
        let results = m.run_tasks(&(), |(), env| {
            Box::pin(async move {
                let peer = 1 - env.rank();
                env.recv_async(peer).await.unwrap_err().to_string()
            })
        });
        // Whichever rank errors out first closes its mailboxes; the peer
        // may observe either the stall or the disconnect.
        for err in &results {
            assert!(err.contains("watchdog") || err.contains("hung up"), "{err}");
        }
        assert!(
            results.iter().any(|e| e.contains("watchdog")),
            "{results:?}"
        );
    }

    #[test]
    fn traces_are_recorded_in_rank_order_and_replay_identically() {
        use crate::trace::MemorySink;
        let run = || {
            let sink = Arc::new(MemorySink::new());
            let m = Multicomputer::virtual_machine(3, model())
                .with_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
            m.run_tasks(&(), |(), env| fan_out_task(env));
            sink.take()
        };
        let first = run();
        assert_eq!(first.len(), 3);
        assert!(first.iter().map(|t| t.rank).eq(0..3));
        assert_eq!(first, run(), "traces must replay identically");
    }
}
