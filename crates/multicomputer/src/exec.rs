//! The event loop that runs every simulated rank as a resumable task on
//! one OS thread, scheduled by message availability.
//!
//! Per-rank state is O(1), so one thread drives the paper's sweeps at
//! tens of thousands of ranks. The observation that makes this cheap:
//! the only operation that ever *needs* a peer is a receive — sends
//! charge the local clock and append to the destination's mailbox, acks
//! are drained opportunistically, and `wait_all` is local NIC arithmetic.
//! A rank program is therefore an `async` function with two suspension
//! points, and the scheduler reduces to: run a task until it suspends,
//! park it, and wake it when what it waits for happens.
//!
//! * **Receive.** A task that needs a frame that has not been pushed yet
//!   parks keyed by the awaited source, and wakes when that source pushes
//!   a frame (or finishes, which surfaces [`CommError::Disconnected`]).
//! * **Send budget.** The fabric counts each sender's undelivered payload
//!   bytes (a push adds, a pop subtracts; self-links are not counted). A
//!   sender that awaits [`crate::Env::send_budget`] while its count
//!   exceeds [`SEND_BUDGET`] parks until receivers drain it back under.
//!   This bounds host memory only: the source of a scheme run holds one
//!   payload in flight instead of p.
//!
//! # Determinism
//!
//! All charging, ARQ, fault-fate and trace logic lives in
//! [`crate::engine::Env`] above the mailboxes, so a rank's ledger is a
//! pure function of its program order and of the frames it consumes, in
//! order, per link. The fabric preserves per-link FIFO, and arrival
//! stamps travel inside the frames, so the ledgers do not depend on the
//! order in which the scheduler interleaves tasks (`sparsedist simcheck`
//! explores every such order to check this). A budget park is one more
//! such interleaving: it charges nothing, reorders no link and changes
//! no frame, so it cannot move a virtual clock. To keep the *schedule*
//! itself reproducible too, the ready queue is FIFO, wakes happen in push
//! order, and this module uses no wall-clock time, no entropy and no
//! unordered collections (the `sparsedist-lint` D rules police this
//! file).
//!
//! # Stall handling
//!
//! Deadlock detection is structural. When the ready queue empties, the
//! scheduler first releases every budget-parked task: a budget is a
//! memory bound, never a reason to stop. Only when no task is left to
//! release is every unfinished task parked on a receive that can never
//! be served. The scheduler then marks the fabric stalled and wakes
//! everyone, so each pending receive returns [`CommError::Stalled`]
//! instead of hanging. A task that finishes with frames still in its
//! mailbox credits their senders, so a destination that stops reading
//! cannot hold a sender's budget.

use crate::engine::{AckMsg, CommError, Frame};

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// Undelivered payload bytes above which [`crate::Env::send_budget`]
/// parks a sender: a host-memory bound, invisible to every virtual clock.
/// One dense SFC part of a 4096² array over 16 ranks is 8 MiB, so the
/// source keeps one such payload in flight; payloads under 256 KiB queue
/// up to the budget between two parks.
pub const SEND_BUDGET: usize = 256 << 10;

/// The execution engine of a [`crate::Multicomputer`]. There is one: the
/// event loop. The type remains as the home of the machine-size cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Every rank is a resumable task on a single-threaded deterministic
    /// event loop; receives are yield points scheduled by frame
    /// availability.
    EventLoop,
}

impl EngineKind {
    /// The largest machine the engine supports: a sanity cap on fabric
    /// memory (per-rank state is O(1), so the loop comfortably drives the
    /// paper's sweeps at 65536 ranks).
    pub fn max_procs(self) -> usize {
        131_072
    }
}

/// The shared mailbox fabric connecting event-loop tasks.
///
/// Everything lives in one `RefCell` because the event loop is strictly
/// single-threaded; borrows are confined to the short fabric methods, never
/// held across a task poll.
pub(crate) struct EventFabric {
    state: RefCell<FabricState>,
}

/// Mutable fabric state. Mailboxes are keyed `[dst][src]` with sparse
/// per-source queues (a `BTreeMap`, not a dense `Vec`, so a 65536-rank
/// machine does not allocate p² queues up front).
struct FabricState {
    /// In-flight data frames, FIFO per (src, dst) link.
    frames: Vec<BTreeMap<usize, VecDeque<Frame>>>,
    /// In-flight ack/nack control frames, same keying.
    acks: Vec<BTreeMap<usize, VecDeque<AckMsg>>>,
    /// Tasks whose future has completed (their mailboxes are closed).
    done: Vec<bool>,
    /// The source each parked task is blocked on (a task waits on at most
    /// one link at a time — receives are sequential within a rank).
    waiting_on: Vec<Option<usize>>,
    /// Reverse index: tasks possibly parked on frames from rank `i`.
    /// Entries can go stale (the task was woken by a frame push since);
    /// wakes filter through `waiting_on` before enqueueing.
    waiters: Vec<Vec<usize>>,
    /// Payload bytes each rank has pushed to other ranks that are not yet
    /// popped (self-links excluded).
    undelivered: Vec<usize>,
    /// Whether each task is parked on its send budget.
    on_budget: Vec<bool>,
    /// Tasks possibly parked on their send budget; entries go stale when
    /// a pop wakes the task, and a release filters through `on_budget`.
    budget_waiters: Vec<usize>,
    /// FIFO ready queue of runnable task ranks.
    ready: VecDeque<usize>,
    /// Guards against double-enqueueing a rank onto `ready`.
    queued: Vec<bool>,
    /// Set by the scheduler when every unfinished task is parked: no frame
    /// can ever arrive, so pending receives must error out. Cleared by any
    /// subsequent frame push (progress resumed).
    stalled: bool,
}

impl FabricState {
    /// Append `frame` to the `src → dst` link. Most links carry a single
    /// frame at a time, so a new link queue starts with room for one
    /// (an all-to-all at p = 2048 keeps millions of links open at once).
    fn push_frame(&mut self, dst: usize, src: usize, frame: Frame) {
        if src != dst {
            self.undelivered[src] += frame.wire_bytes();
        }
        self.frames[dst]
            .entry(src)
            .or_insert_with(|| VecDeque::with_capacity(1))
            .push_back(frame);
    }

    /// Pop the next frame on the `src → dst` link, dropping the link's
    /// queue once it drains so idle links hold no memory.
    fn pop_frame(&mut self, dst: usize, src: usize) -> Option<Frame> {
        let queue = self.frames[dst].get_mut(&src)?;
        let frame = queue.pop_front();
        if queue.is_empty() {
            self.frames[dst].remove(&src);
        }
        if let Some(f) = &frame {
            if src != dst {
                self.credit(src, f.wire_bytes());
            }
        }
        frame
    }

    /// Subtract `bytes` from `src`'s undelivered count, waking `src` if it
    /// is parked on its budget and the count is back under it.
    fn credit(&mut self, src: usize, bytes: usize) {
        self.undelivered[src] -= bytes;
        if self.on_budget[src] && self.undelivered[src] <= SEND_BUDGET {
            self.on_budget[src] = false;
            self.enqueue(src);
        }
    }

    /// Drop the frames left in finished rank `rank`'s mailbox, crediting
    /// their senders: nobody can pop them any more.
    fn discard_mailbox(&mut self, rank: usize) {
        for (src, queue) in std::mem::take(&mut self.frames[rank]) {
            if src != rank {
                self.credit(src, queue.iter().map(Frame::wire_bytes).sum());
            }
        }
    }

    /// Wake every task parked on its send budget; false if there was none.
    fn release_budget_waiters(&mut self) -> bool {
        let mut released = false;
        for w in std::mem::take(&mut self.budget_waiters) {
            if self.on_budget[w] {
                self.on_budget[w] = false;
                self.enqueue(w);
                released = true;
            }
        }
        released
    }

    fn enqueue(&mut self, rank: usize) {
        if !self.queued[rank] && !self.done[rank] {
            self.queued[rank] = true;
            self.ready.push_back(rank);
        }
    }

    fn pop_ready(&mut self) -> Option<usize> {
        let rank = self.ready.pop_front()?;
        self.queued[rank] = false;
        Some(rank)
    }

    /// Wake every task currently parked on `src` (stale waiter entries are
    /// skipped via the `waiting_on` check).
    fn wake_waiters_of(&mut self, src: usize) {
        let parked = std::mem::take(&mut self.waiters[src]);
        for w in parked {
            if self.waiting_on[w] == Some(src) {
                self.waiting_on[w] = None;
                self.enqueue(w);
            }
        }
    }
}

impl EventFabric {
    /// A fabric for `p` tasks, all initially runnable in rank order.
    pub(crate) fn new(p: usize) -> Self {
        EventFabric {
            state: RefCell::new(FabricState {
                frames: (0..p).map(|_| BTreeMap::new()).collect(),
                acks: (0..p).map(|_| BTreeMap::new()).collect(),
                done: vec![false; p],
                waiting_on: vec![None; p],
                waiters: (0..p).map(|_| Vec::new()).collect(),
                undelivered: vec![0; p],
                on_budget: vec![false; p],
                budget_waiters: Vec::new(),
                ready: (0..p).collect(),
                queued: vec![true; p],
                stalled: false,
            }),
        }
    }

    /// Append a frame to the `src → dst` link, waking `dst` if it is
    /// parked on that link. Fails with [`CommError::Disconnected`] when
    /// `dst`'s task has already completed.
    pub(crate) fn push_frame(&self, dst: usize, src: usize, frame: Frame) -> Result<(), CommError> {
        let mut st = self.state.borrow_mut();
        if st.done[dst] {
            return Err(CommError::Disconnected { peer: dst });
        }
        st.push_frame(dst, src, frame);
        st.stalled = false; // a frame in flight is progress
        if st.waiting_on[dst] == Some(src) {
            st.waiting_on[dst] = None;
            st.enqueue(dst);
        }
        Ok(())
    }

    /// A future resolving to the next frame on the `src → rank` link (or
    /// the matching [`CommError`]); the task parks while the link is empty.
    pub(crate) fn frame_wait(self: &Rc<Self>, rank: usize, src: usize) -> FrameWait {
        FrameWait {
            fabric: Rc::clone(self),
            rank,
            src,
            yielded: false,
        }
    }

    /// A future that resolves once `rank`'s undelivered payload bytes are
    /// at most [`SEND_BUDGET`], or once the scheduler releases it.
    pub(crate) fn budget_wait(self: &Rc<Self>, rank: usize) -> BudgetWait {
        BudgetWait {
            fabric: Rc::clone(self),
            rank,
            parked: false,
        }
    }

    /// Best-effort ack push (acks to a finished task vanish).
    pub(crate) fn push_ack(&self, dst: usize, src: usize, ack: AckMsg) {
        let mut st = self.state.borrow_mut();
        if !st.done[dst] {
            st.acks[dst].entry(src).or_default().push_back(ack);
        }
    }

    /// Pop the next pending ack from `from`, if any.
    pub(crate) fn pop_ack(&self, rank: usize, from: usize) -> Option<AckMsg> {
        self.state.borrow_mut().acks[rank]
            .get_mut(&from)
            .and_then(VecDeque::pop_front)
    }
}

/// Future for one pending receive on the fabric (see
/// [`EventFabric::frame_wait`]).
pub(crate) struct FrameWait {
    fabric: Rc<EventFabric>,
    rank: usize,
    src: usize,
    /// Whether the exploration-mode pre-consume yield already happened.
    yielded: bool,
}

impl Future for FrameWait {
    type Output = Result<Frame, CommError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut st = this.fabric.state.borrow_mut();
        // Under an installed schedule override, every receive parks once
        // *before* consuming, staying runnable: the scheduler may then
        // interleave any other ready rank between two receives, which is
        // exactly the "frame delivered later" case a production poll
        // short-circuits past. This widens the explored interleaving
        // space to per-receive granularity; plain runs skip it.
        if !this.yielded && !st.stalled && exploring() {
            this.yielded = true;
            st.enqueue(this.rank);
            return Poll::Pending;
        }
        if let Some(frame) = st.pop_frame(this.rank, this.src) {
            return Poll::Ready(Ok(frame));
        }
        if st.done[this.src] {
            // Drained and the peer has exited: the link can only ever be
            // empty from here on.
            return Poll::Ready(Err(CommError::Disconnected { peer: this.src }));
        }
        if st.stalled {
            return Poll::Ready(Err(CommError::Stalled { src: this.src }));
        }
        st.waiting_on[this.rank] = Some(this.src);
        st.waiters[this.src].push(this.rank);
        Poll::Pending
    }
}

/// Future for one send-budget park (see [`EventFabric::budget_wait`]).
pub(crate) struct BudgetWait {
    fabric: Rc<EventFabric>,
    rank: usize,
    /// Whether this wait already parked: the task is polled again only
    /// once a pop brought it under the budget or the scheduler released
    /// it, and either way it goes on.
    parked: bool,
}

impl Future for BudgetWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut st = this.fabric.state.borrow_mut();
        if this.parked {
            st.on_budget[this.rank] = false;
            return Poll::Ready(());
        }
        if st.undelivered[this.rank] <= SEND_BUDGET {
            return Poll::Ready(());
        }
        this.parked = true;
        st.on_budget[this.rank] = true;
        st.budget_waiters.push(this.rank);
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Pluggable scheduling (the `simcheck` seam)
//
// By default the loop pops the FIFO ready queue — one canonical schedule.
// The explorer (`crate::explore`) installs a thread-local override that
// picks *which* ready task runs at every step where the ready set offers
// a real choice (width > 1), and records the (width, choice) trace so a
// depth-first sweep can enumerate every delivery interleaving. The
// override lives in a thread-local because the event loop is strictly
// single-threaded and `Multicomputer` must stay `Sync`-agnostic.
// ---------------------------------------------------------------------------

/// A schedule override: replay `prefix` at the first branch points, then
/// take choice 0; record every branch point taken.
pub(crate) struct ScheduleState {
    /// Choices to replay, one per branch point (ready width > 1).
    prefix: Vec<usize>,
    /// Recorded `(width, choice)` per branch point, in order.
    pub(crate) trace: Vec<(usize, usize)>,
    cursor: usize,
}

thread_local! {
    static SCHEDULE: RefCell<Option<ScheduleState>> = const { RefCell::new(None) };
}

/// Whether a schedule override is installed on this thread (exploration
/// mode): receives then park once before consuming so the sweep sees
/// per-receive delivery granularity.
fn exploring() -> bool {
    SCHEDULE.with(|s| s.borrow().is_some())
}

/// Install a schedule override for the next event-loop run on this
/// thread. The returned guard uninstalls on drop (panic-safe) and hands
/// back the recorded trace via [`ScheduleGuard::finish`].
pub(crate) struct ScheduleGuard;

impl ScheduleGuard {
    pub(crate) fn install(prefix: Vec<usize>) -> Self {
        SCHEDULE.with(|s| {
            *s.borrow_mut() = Some(ScheduleState {
                prefix,
                trace: Vec::new(),
                cursor: 0,
            });
        });
        ScheduleGuard
    }

    /// Uninstall and return the branch-point trace of the run.
    pub(crate) fn finish(self) -> Vec<(usize, usize)> {
        SCHEDULE
            .with(|s| s.borrow_mut().take())
            .map_or_else(Vec::new, |st| st.trace)
    }
}

impl Drop for ScheduleGuard {
    fn drop(&mut self) {
        SCHEDULE.with(|s| {
            s.borrow_mut().take();
        });
    }
}

/// Pick the next runnable rank: FIFO by default, or the installed
/// schedule's choice at branch points. Decisions are recorded only where
/// the ready set offers a real choice — a width-1 step has exactly one
/// possible successor state, so exploring it adds nothing (the DPOR-lite
/// reduction).
fn pick_ready(st: &mut FabricState) -> Option<usize> {
    let width = st.ready.len();
    if width <= 1 {
        return st.pop_ready();
    }
    let choice = SCHEDULE.with(|s| {
        s.borrow_mut().as_mut().map(|sch| {
            let c = if sch.cursor < sch.prefix.len() {
                sch.prefix[sch.cursor].min(width - 1)
            } else {
                0
            };
            sch.cursor += 1;
            sch.trace.push((width, c));
            c
        })
    });
    match choice {
        None | Some(0) => st.pop_ready(),
        Some(c) => {
            let rank = st.ready.remove(c)?;
            st.queued[rank] = false;
            Some(rank)
        }
    }
}

fn noop_raw_waker() -> RawWaker {
    fn clone(_: *const ()) -> RawWaker {
        noop_raw_waker()
    }
    fn noop(_: *const ()) {}
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, noop, noop, noop);
    RawWaker::new(std::ptr::null(), &VTABLE)
}

/// A waker that does nothing: wakeups are tracked in the fabric's
/// `waiting_on`/`waiters` tables, not through the std waker protocol
/// (hand-rolled because `Waker::noop` postdates the MSRV).
fn noop_waker() -> Waker {
    // SAFETY: every vtable entry ignores its data pointer and carries no
    // state, so the RawWaker contract (clone/wake/wake_by_ref/drop over a
    // null pointer) is upheld trivially.
    unsafe { Waker::from_raw(noop_raw_waker()) }
}

/// Drive `tasks` (one per rank, index = rank) to completion on the fabric
/// and return their outputs in rank order.
///
/// The loop is deterministic: tasks are polled in FIFO ready order
/// starting from rank 0, a task parked on a receive is woken only by a
/// frame push on the link it awaits (or its peer finishing), and one
/// parked on its send budget only by a pop that brings it back under.
/// An empty ready queue first releases every budget-parked task; only a
/// global stall — every unfinished task parked on a receive —
/// synthesizes wakeups so pending receives surface [`CommError::Stalled`]
/// instead of deadlocking.
pub(crate) fn drive<'f, T>(
    tasks: Vec<Pin<Box<dyn Future<Output = T> + 'f>>>,
    fabric: &Rc<EventFabric>,
) -> Vec<T> {
    let p = tasks.len();
    // A finished task is dropped at once, not held until the run ends.
    let mut tasks: Vec<Option<_>> = tasks.into_iter().map(Some).collect();
    let mut results: Vec<Option<T>> = (0..p).map(|_| None).collect();
    let mut remaining = p;
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    while remaining > 0 {
        let next = pick_ready(&mut fabric.state.borrow_mut());
        let rank = match next {
            Some(rank) => rank,
            None => {
                let mut st = fabric.state.borrow_mut();
                if st.release_budget_waiters() {
                    continue;
                }
                // Every unfinished task is parked on a link that can never
                // deliver: a protocol stall. Wake them all so the pending
                // receives error out deterministically.
                st.stalled = true;
                for r in 0..p {
                    if !st.done[r] {
                        st.waiting_on[r] = None;
                        st.enqueue(r);
                    }
                }
                continue;
            }
        };
        // Only unfinished ranks are ever enqueued.
        let Some(task) = tasks[rank].as_mut() else {
            continue;
        };
        match task.as_mut().poll(&mut cx) {
            Poll::Ready(out) => {
                tasks[rank] = None;
                results[rank] = Some(out);
                remaining -= 1;
                let mut st = fabric.state.borrow_mut();
                st.done[rank] = true;
                st.discard_mailbox(rank);
                // Closing the rank's mailboxes is progress: peers blocked
                // on it must now observe the disconnect.
                st.stalled = false;
                st.wake_waiters_of(rank);
            }
            Poll::Pending => {
                let st = fabric.state.borrow();
                debug_assert!(
                    st.waiting_on[rank].is_some() || st.on_budget[rank] || st.queued[rank],
                    "task {rank} pended without parking or re-enqueueing"
                );
            }
        }
    }
    results
        .into_iter()
        .map(|r| {
            // lint: allow(E002) — the loop above runs until every slot is filled
            r.expect("event loop finished with an unfinished task")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::SEND_BUDGET;
    use crate::engine::{CommError, Env};
    use crate::{MachineModel, Multicomputer, PackBuffer};
    use std::cell::RefCell;

    type Log = RefCell<Vec<String>>;

    fn machine(p: usize) -> Multicomputer {
        Multicomputer::virtual_machine(p, MachineModel::new(10.0, 2.0, 1.0))
    }

    /// A payload one byte over the budget.
    fn over_budget() -> PackBuffer {
        let mut b = PackBuffer::new();
        b.push_zeroed(SEND_BUDGET + 1, 1);
        b
    }

    fn note(log: &Log, line: &str) {
        log.borrow_mut().push(line.to_string());
    }

    /// Ranks 2 and 3 bounce a frame eight times, so the ready queue never
    /// empties until they are done: a rank that resumes before
    /// "ping-pong done" was woken by the fabric, not released by the
    /// scheduler's last-resort release.
    async fn ping_pong(log: &Log, env: &mut Env) -> Result<(), CommError> {
        let peer = 5 - env.rank();
        for round in 0..8 {
            if (round + env.rank()) % 2 == 0 {
                env.send(peer, PackBuffer::new())?;
            } else {
                env.recv_async(peer).await?;
            }
        }
        if env.rank() == 2 {
            note(log, "ping-pong done");
        }
        Ok(())
    }

    fn position(log: &[String], line: &str) -> usize {
        log.iter().position(|l| l == line).unwrap()
    }

    #[test]
    fn a_pop_under_the_budget_wakes_the_sender() {
        let log = Log::default();
        let outs = machine(4).run_tasks(&log, |log, env| {
            Box::pin(async move {
                match env.rank() {
                    0 => {
                        env.send(1, over_budget())?;
                        env.send_budget().await;
                        note(log, "0 resumed");
                        Ok(())
                    }
                    1 => {
                        env.recv_async(0).await?;
                        note(log, "1 received");
                        Ok(())
                    }
                    _ => ping_pong(log, env).await,
                }
            })
        });
        assert!(outs.iter().all(Result::is_ok), "{outs:?}");
        let log = log.into_inner();
        assert!(position(&log, "1 received") < position(&log, "0 resumed"));
        assert!(position(&log, "0 resumed") < position(&log, "ping-pong done"));
    }

    #[test]
    fn a_destination_that_finishes_undrained_releases_its_sender() {
        let log = Log::default();
        let outs = machine(4).run_tasks(&log, |log, env| {
            Box::pin(async move {
                match env.rank() {
                    0 => {
                        env.send(1, over_budget())?;
                        env.send_budget().await;
                        note(log, "0 resumed");
                        Ok(())
                    }
                    1 => {
                        note(log, "1 finished");
                        Ok(())
                    }
                    _ => ping_pong(log, env).await,
                }
            })
        });
        assert!(outs.iter().all(Result::is_ok), "{outs:?}");
        let log = log.into_inner();
        assert!(position(&log, "1 finished") < position(&log, "0 resumed"));
        assert!(position(&log, "0 resumed") < position(&log, "ping-pong done"));
    }

    /// Each rank sends the other an over-budget payload, then waits on
    /// its budget before receiving: neither can be drained first, so only
    /// the release before a stall lets them go on. Rank 1 then sends rank
    /// 0 a second frame, which rank 0 awaits before it is pushed: a
    /// scheduler that had marked the fabric stalled instead would fail
    /// that receive.
    async fn swap(env: &mut Env, wait: bool) -> Result<usize, CommError> {
        let peer = 1 - env.rank();
        env.send(peer, over_budget())?;
        if wait {
            env.send_budget().await;
        }
        let got = env.recv_async(peer).await?.payload.byte_len();
        if env.rank() == 1 {
            env.send(0, PackBuffer::new())?;
            return Ok(got);
        }
        Ok(got + env.recv_async(1).await?.payload.byte_len())
    }

    #[test]
    fn mutual_over_budget_sends_are_released_not_stalled() {
        let run =
            |wait: bool| machine(2).run_tasks_with_ledgers(&wait, |&w, env| Box::pin(swap(env, w)));
        let (outs, ledgers) = run(true);
        assert_eq!(outs, vec![Ok(SEND_BUDGET + 1), Ok(SEND_BUDGET + 1)]);
        // The wait charges nothing: the ledgers are those of the run
        // without it.
        assert_eq!(format!("{ledgers:?}"), format!("{:?}", run(false).1));
    }

    #[test]
    fn self_sends_never_park() {
        let log = Log::default();
        let outs = machine(2).run_tasks(&log, |log, env| {
            Box::pin(async move {
                if env.rank() == 1 {
                    note(log, "1 ran");
                    return Ok::<_, CommError>(0);
                }
                for _ in 0..2 {
                    env.send(0, over_budget())?;
                    env.send_budget().await;
                }
                note(log, "0 past its budget");
                let first = env.recv_async(0).await?.payload.byte_len();
                Ok(first + env.recv_async(0).await?.payload.byte_len())
            })
        });
        assert_eq!(outs, vec![Ok(2 * (SEND_BUDGET + 1)), Ok(0)]);
        assert_eq!(log.into_inner(), vec!["0 past its budget", "1 ran"]);
    }
}
