//! Exhaustive schedule exploration for the event-loop engine — the
//! dynamic twin of the `sparsedist-lint` C rules (`sparsedist simcheck`).
//!
//! The static analyzer proves syntactic communication-safety properties
//! (awaits only on receives, every post reaches its drain); this module
//! checks the *semantic* claim those properties serve: the protocol's
//! outcome — ledgers, locals, owners — is independent of message-delivery
//! order, and no delivery order deadlocks. The event-loop scheduler in
//! [`crate::exec`] normally pops a FIFO ready queue, which fixes one
//! canonical interleaving; here we drive the loop through *every*
//! interleaving instead and compare.
//!
//! # How the sweep works
//!
//! The scheduler consults a pluggable override (`exec::ScheduleGuard`) at
//! each step where the ready set offers a real choice (width > 1; width-1
//! steps have a single successor state, so branching there would only
//! multiply identical runs — the DPOR-lite reduction). Each run records
//! its `(width, choice)` trace. The explorer then performs a depth-first
//! sweep by *replay*: rerun with the same choice prefix up to the deepest
//! branch point that still has an untaken sibling, take that sibling, and
//! default to choice 0 beyond. When no branch point has a sibling left,
//! the tree is exhausted — every reachable delivery schedule has run.
//!
//! Replay works because a run is a pure function of its choice sequence:
//! the engine uses no wall clock, no entropy and no unordered collections
//! (the lint D rules police this), so the same prefix always reproduces
//! the same branch points. The explorer is generic over the outcome type:
//! callers digest whatever must be schedule-invariant (ledger bytes,
//! reassembled arrays, typed errors) into a `PartialEq` value, and
//! [`explore`] reports the first schedule whose digest diverges from the
//! first run's, if any.
//!
//! State-space caveat: the sweep is exhaustive over *delivery orders for
//! one fixed program*, not over programs or fault seeds — drive it once
//! per (scheme, partition, fault plan) configuration of interest. Tree
//! size is exponential in ready-set width, which is why `simcheck` caps
//! machines at a handful of ranks.

use crate::exec::ScheduleGuard;

/// The result of exploring every delivery schedule of one configuration
/// (see [`explore`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration<T> {
    /// The canonical outcome: what the first (all-FIFO) schedule produced.
    pub baseline: T,
    /// How many distinct schedules ran.
    pub schedules: usize,
    /// True when the sweep hit `max_schedules` with unexplored branches
    /// remaining — the verdict then covers only the schedules that ran.
    pub truncated: bool,
    /// The first schedule whose outcome differed from `baseline`, if any.
    /// `None` means every explored schedule agreed bit-for-bit.
    pub divergence: Option<Divergence<T>>,
    /// The deepest branch-point count seen across all runs — a size
    /// measure of the interleaving tree.
    pub max_branch_points: usize,
}

/// A schedule whose outcome broke bit-identity with the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence<T> {
    /// Zero-based index of the diverging schedule (schedule 0 is the
    /// baseline itself, so this is always ≥ 1).
    pub schedule: usize,
    /// The branch choices that produced it, one per branch point — replay
    /// material for debugging.
    pub choices: Vec<usize>,
    /// What that schedule produced instead of the baseline outcome.
    pub outcome: T,
}

impl<T> Exploration<T> {
    /// True when every explored schedule produced the baseline outcome
    /// *and* the tree was fully explored: the outcome is proven
    /// schedule-independent for this configuration.
    pub fn proves_schedule_independence(&self) -> bool {
        self.divergence.is_none() && !self.truncated
    }
}

/// Run `run` under every message-delivery schedule (up to
/// `max_schedules`) and compare outcomes.
///
/// `run` must execute the configuration **on this thread** (the
/// schedule override is thread-local) and digest the result into a `PartialEq`
/// value covering everything that must be schedule-invariant. It is
/// called once per schedule; the first call uses the engine's canonical
/// FIFO order, so `baseline` equals what a production run produces.
///
/// Deadlock-freedom falls out of the outcome comparison: the event loop
/// detects stalls structurally and surfaces [`crate::CommError::Stalled`]
/// through the program's receives, so a schedule that deadlocks yields a
/// different digest than one that completes (and the explorer itself
/// never hangs).
///
/// # Panics
/// Panics if `max_schedules` is zero, and propagates panics from `run`.
pub fn explore<T, F>(mut run: F, max_schedules: usize) -> Exploration<T>
where
    T: PartialEq,
    F: FnMut() -> T,
{
    assert!(max_schedules > 0, "must explore at least one schedule");
    let mut prefix: Vec<usize> = Vec::new();
    let mut baseline: Option<T> = None;
    let mut divergence = None;
    let mut schedules = 0;
    let mut max_branch_points = 0;
    let mut truncated = false;
    loop {
        let guard = ScheduleGuard::install(prefix.clone());
        let out = run();
        let trace = guard.finish();
        max_branch_points = max_branch_points.max(trace.len());
        match baseline.as_ref() {
            None => baseline = Some(out),
            Some(base) => {
                if divergence.is_none() && *base != out {
                    divergence = Some(Divergence {
                        schedule: schedules,
                        choices: trace.iter().map(|&(_, c)| c).collect(),
                        outcome: out,
                    });
                }
            }
        }
        schedules += 1;
        let next = next_prefix(&trace);
        match next {
            Some(p) if schedules < max_schedules => prefix = p,
            Some(_) => {
                truncated = true;
                break;
            }
            None => break,
        }
    }
    let Some(baseline) = baseline else {
        unreachable!("the loop always runs at least once");
    };
    Exploration {
        baseline,
        schedules,
        truncated,
        divergence,
        max_branch_points,
    }
}

/// The depth-first successor of a completed run's trace: replay every
/// choice before the deepest branch point that still has an untaken
/// sibling, then take that sibling. `None` when the trace is the last
/// leaf — all siblings everywhere are exhausted.
fn next_prefix(trace: &[(usize, usize)]) -> Option<Vec<usize>> {
    for i in (0..trace.len()).rev() {
        let (width, choice) = trace[i];
        if choice + 1 < width {
            let mut prefix: Vec<usize> = trace[..i].iter().map(|&(_, c)| c).collect();
            prefix.push(choice + 1);
            return Some(prefix);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Multicomputer;
    use crate::model::MachineModel;
    use crate::pack::PackBuffer;

    fn model() -> MachineModel {
        MachineModel::ibm_sp2()
    }

    /// Rank 0 fans a value out to every other rank; receivers read it.
    /// With p ranks all initially ready, the first scheduler step already
    /// offers a choice, so the tree has multiple leaves.
    fn fan_out_digest(p: usize) -> String {
        let m = Multicomputer::virtual_machine(p, model());
        let (results, ledgers) = m.run_tasks_with_ledgers(&(), |(), env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    for dst in 1..env.nprocs() {
                        let mut b = PackBuffer::new();
                        b.push_u64(u64::try_from(dst).unwrap() * 7);
                        env.send(dst, b).unwrap();
                    }
                    0
                } else {
                    let got = env.recv_async(0).await.unwrap();
                    got.payload.cursor().read_u64()
                }
            })
        });
        format!("{results:?}|{ledgers:?}")
    }

    #[test]
    fn next_prefix_walks_the_tree_depth_first() {
        // A two-level tree: widths (3, 2). The sweep must visit
        // (0,0) (0,1) (1,0) (1,1) (2,0) (2,1) — six leaves.
        assert_eq!(next_prefix(&[(3, 0), (2, 0)]), Some(vec![0, 1]));
        assert_eq!(next_prefix(&[(3, 0), (2, 1)]), Some(vec![1]));
        assert_eq!(next_prefix(&[(3, 2), (2, 1)]), None);
        assert_eq!(next_prefix(&[]), None);
    }

    #[test]
    fn explore_enumerates_every_leaf_of_a_synthetic_tree() {
        // Simulate runs without an engine: the guard records nothing, so
        // traces are empty — a single-schedule tree.
        let report = explore(|| 42u32, 100);
        assert_eq!(report.schedules, 1);
        assert!(!report.truncated);
        assert!(report.proves_schedule_independence());
        assert_eq!(report.baseline, 42);
    }

    #[test]
    fn fan_out_outcomes_are_schedule_independent() {
        let report = explore(|| fan_out_digest(3), 10_000);
        assert!(
            report.schedules > 1,
            "a 3-rank fan-out must branch: {report:?}"
        );
        assert!(!report.truncated, "tree unexpectedly large: {report:?}");
        assert!(
            report.proves_schedule_independence(),
            "divergence: {:?}",
            report.divergence
        );
    }

    #[test]
    fn truncation_is_reported_when_the_cap_bites() {
        let report = explore(|| fan_out_digest(3), 2);
        assert_eq!(report.schedules, 2);
        assert!(report.truncated);
        assert!(!report.proves_schedule_independence());
    }

    #[test]
    fn a_schedule_sensitive_probe_is_caught() {
        // Host-side poll order is the one observable that legitimately
        // varies across schedules (everything inside the simulation is
        // designed not to). A probe that records it must diverge —
        // proving the explorer drives genuinely distinct interleavings
        // and that the comparison can fail.
        use std::sync::Mutex;
        let run = || {
            let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            let m = Multicomputer::virtual_machine(3, model());
            m.run_tasks(&order, |order, env| {
                Box::pin(async move {
                    order.lock().unwrap().push(env.rank());
                })
            });
            order.into_inner().unwrap()
        };
        let report = explore(run, 10_000);
        assert!(report.schedules > 1, "{report:?}");
        assert!(
            report.divergence.is_some(),
            "poll-order probe failed to diverge: {report:?}"
        );
        // Three independent tasks: every poll permutation is reachable,
        // so the tree has exactly 3! leaves.
        assert_eq!(report.schedules, 6, "{report:?}");
    }
}
