//! Collective operations built on the point-to-point primitives.
//!
//! The paper's distribution phase is exactly a `scatterv` from the source
//! processor ("local sparse arrays … are sent to processors in sequence").
//! `gather`, `broadcast`, `allgather`, `allreduce_sum` and `barrier` round
//! out the set; the ops crate reduces norms with `allreduce_sum`.
//!
//! Every collective is an `async fn` awaited inside a rank task (see
//! [`crate::Multicomputer::run_tasks`]); its only await points are
//! receives. The rooted ones are implemented as sequential sends from /
//! receives at the root, matching the paper's sequential-send cost model
//! (`p × T_Startup + total_elems × T_Data` charged at the root).
//!
//! # Fault behavior
//!
//! Every collective returns `Result<_, CommError>` and degrades gracefully
//! under a [`crate::fault::FaultPlan`] with dead ranks: dead peers are
//! skipped (their slot, where one exists, is an empty [`PackBuffer`]), the
//! reduction/barrier hub moves to the lowest *alive* rank, and a rank that
//! is itself dead gets [`CommError::PeerDead`] back immediately so rank
//! tasks can bail out without deadlocking the survivors. A dead *root*
//! is unrecoverable for rooted collectives and surfaces as `PeerDead` on
//! every alive rank.

use crate::engine::{CommError, Env};
use crate::pack::PackBuffer;
use crate::timing::Phase;

/// Bail out of a collective when the calling rank itself is dead.
fn check_self_alive(env: &Env) -> Result<(), CommError> {
    if env.is_rank_dead(env.rank()) {
        Err(CommError::PeerDead { rank: env.rank() })
    } else {
        Ok(())
    }
}

/// `?` for the body of a collective's trace span: on error, close the
/// span opened by `Env::begin_span` (and restore the phase `$prev` saved
/// by `Env::begin_phase`, if given) before returning the error.
macro_rules! span_try {
    ($env:expr, $result:expr $(, $prev:expr)?) => {
        match $result {
            Ok(v) => v,
            Err(e) => {
                $env.end_span();
                $($env.end_phase($prev);)?
                return Err(e);
            }
        }
    };
}

/// Scatter one pre-packed buffer to each rank from `root`.
///
/// On the root, `make_buf(dst)` is called for every *alive* destination
/// rank in rank order (including the root itself) and the produced buffer
/// is sent. Every alive rank (root included) then receives and returns its
/// own buffer.
///
/// Send costs are attributed to [`Phase::Send`]; the cost of `make_buf`
/// lands in whatever phase the caller wrapped the call in (typically
/// [`Phase::Pack`] work happens *before* calling this).
pub async fn scatterv(
    env: &mut Env,
    root: usize,
    mut make_buf: impl FnMut(usize) -> PackBuffer,
) -> Result<PackBuffer, CommError> {
    check_self_alive(env)?;
    env.begin_span("scatterv");
    if env.rank() == root {
        for dst in 0..env.nprocs() {
            if env.is_rank_dead(dst) {
                continue;
            }
            let buf = make_buf(dst);
            span_try!(env, env.send(dst, buf));
        }
    }
    let msg = span_try!(env, env.recv_async(root).await);
    env.end_span();
    Ok(msg.payload)
}

/// Gather one buffer from every rank at `root`.
///
/// Every alive rank sends `buf` to the root; the root returns one buffer
/// per rank in rank order — dead ranks contribute an empty [`PackBuffer`]
/// placeholder (callers distinguish them via [`Env::is_rank_dead`]).
/// Non-root ranks return an empty vector.
pub async fn gather(
    env: &mut Env,
    root: usize,
    buf: PackBuffer,
) -> Result<Vec<PackBuffer>, CommError> {
    check_self_alive(env)?;
    env.begin_span("gather");
    span_try!(env, env.send(root, buf));
    let mut all = Vec::new();
    if env.rank() == root {
        for src in 0..env.nprocs() {
            if env.is_rank_dead(src) {
                all.push(PackBuffer::new());
            } else {
                all.push(span_try!(env, env.recv_async(src).await).payload);
            }
        }
    }
    env.end_span();
    Ok(all)
}

/// Broadcast a buffer from `root` to every alive rank.
pub async fn broadcast(
    env: &mut Env,
    root: usize,
    buf: Option<PackBuffer>,
) -> Result<PackBuffer, CommError> {
    check_self_alive(env)?;
    env.begin_span("broadcast");
    if env.rank() == root {
        // lint: allow(E002) — documented API contract: the root passes Some(buf)
        let buf = buf.expect("root must supply the broadcast buffer");
        for dst in 0..env.nprocs() {
            if env.is_rank_dead(dst) {
                continue;
            }
            span_try!(env, env.send(dst, buf.clone()));
        }
    }
    let msg = span_try!(env, env.recv_async(root).await);
    env.end_span();
    Ok(msg.payload)
}

/// Allgather: every alive rank contributes one buffer and receives
/// everyone's, in rank order (dead ranks' slots are empty placeholder
/// buffers). Implemented as direct exchange (`p²` messages), matching the
/// sequential-send cost model used throughout.
pub async fn allgather(env: &mut Env, buf: PackBuffer) -> Result<Vec<PackBuffer>, CommError> {
    check_self_alive(env)?;
    env.begin_span("allgather");
    for dst in 0..env.nprocs() {
        if env.is_rank_dead(dst) {
            continue;
        }
        span_try!(env, env.send(dst, buf.clone()));
    }
    let mut all = Vec::with_capacity(env.nprocs());
    for src in 0..env.nprocs() {
        if env.is_rank_dead(src) {
            all.push(PackBuffer::new());
        } else {
            all.push(span_try!(env, env.recv_async(src).await).payload);
        }
    }
    env.end_span();
    Ok(all)
}

/// Elementwise sum-reduction of equal-length `f64` vectors over the alive
/// ranks, followed by a broadcast — an allreduce. The hub is the lowest
/// alive rank, so the collective survives the death of rank 0. Returns the
/// reduced vector on every alive rank.
///
/// # Panics
/// Panics if alive ranks contribute different lengths, or no rank is alive.
pub async fn allreduce_sum(env: &mut Env, values: &[f64]) -> Result<Vec<f64>, CommError> {
    check_self_alive(env)?;
    env.begin_span("allreduce_sum");
    let hub = env
        .lowest_alive_rank()
        // lint: allow(E002) — check_self_alive passed, so at least this rank is alive
        .expect("allreduce needs at least one alive rank");
    // Checkout from the rank's arena: iterative solvers call allreduce
    // every sweep, and recycling keeps the hub's p-fold churn off the
    // allocator entirely after the first round.
    let mut buf = env.arena().checkout((values.len() + 1) * 8);
    buf.push_u64(values.len() as u64);
    buf.push_f64_slice(values);
    span_try!(env, env.send(hub, buf));
    if env.rank() == hub {
        let mut acc = vec![0.0f64; values.len()];
        let mut contributors = 0u64;
        for src in 0..env.nprocs() {
            if env.is_rank_dead(src) {
                continue;
            }
            let msg = span_try!(env, env.recv_async(src).await);
            let mut cursor = msg.payload.cursor();
            let len = cursor.read_usize();
            assert_eq!(
                len,
                acc.len(),
                "rank {src} contributed length {len}, expected {}",
                acc.len()
            );
            for slot in acc.iter_mut() {
                *slot += cursor.read_f64();
            }
            contributors += 1;
            env.arena().recycle_bytes(msg.payload.into_bytes());
        }
        env.charge_ops(acc.len() as u64 * contributors);
        for dst in 0..env.nprocs() {
            if env.is_rank_dead(dst) {
                continue;
            }
            let mut b = env.arena().checkout(acc.len() * 8);
            b.push_f64_slice(&acc);
            span_try!(env, env.send(dst, b));
        }
    }
    let msg = span_try!(env, env.recv_async(hub).await);
    let out = msg.payload.cursor().read_f64_vec(values.len());
    env.arena().recycle_bytes(msg.payload.into_bytes());
    env.end_span();
    Ok(out)
}

/// Synchronise all alive ranks: everyone reports to the lowest alive rank,
/// which then releases everyone. Costs are attributed to [`Phase::Send`] /
/// [`Phase::Wait`] as usual; the whole exchange is wrapped in
/// [`Phase::Other`] to keep it out of scheme aggregates.
pub async fn barrier(env: &mut Env) -> Result<(), CommError> {
    check_self_alive(env)?;
    let hub = env
        .lowest_alive_rank()
        // lint: allow(E002) — check_self_alive passed, so at least this rank is alive
        .expect("barrier needs at least one alive rank");
    let prev = env.begin_phase(Phase::Other);
    env.begin_span("barrier");
    span_try!(env, env.send(hub, PackBuffer::new()), prev);
    if env.rank() == hub {
        for src in 0..env.nprocs() {
            if env.is_rank_dead(src) {
                continue;
            }
            span_try!(env, env.recv_async(src).await, prev);
        }
        for dst in 0..env.nprocs() {
            if env.is_rank_dead(dst) {
                continue;
            }
            span_try!(env, env.send(dst, PackBuffer::new()), prev);
        }
    }
    span_try!(env, env.recv_async(hub).await, prev);
    env.end_span();
    env.end_phase(prev);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::tasks;
    use crate::engine::Multicomputer;
    use crate::fault::FaultPlan;
    use crate::model::MachineModel;

    fn machine(p: usize) -> Multicomputer {
        Multicomputer::virtual_machine(p, MachineModel::new(1.0, 1.0, 1.0))
    }

    fn tagged(v: u64) -> PackBuffer {
        let mut b = PackBuffer::new();
        b.push_u64(v);
        b
    }

    #[test]
    fn scatterv_delivers_per_rank_payloads() {
        let (got, _) = tasks(&machine(4), |env| {
            Box::pin(async move {
                let buf = scatterv(env, 0, |dst| tagged(100 + dst as u64))
                    .await
                    .unwrap();
                buf.cursor().read_u64()
            })
        });
        assert_eq!(got, vec![100, 101, 102, 103]);
    }

    #[test]
    fn scatterv_nonzero_root() {
        let (got, _) = tasks(&machine(3), |env| {
            Box::pin(async move {
                let buf = scatterv(env, 2, |dst| tagged(dst as u64 * 2))
                    .await
                    .unwrap();
                buf.cursor().read_u64()
            })
        });
        assert_eq!(got, vec![0, 2, 4]);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let (got, _) = tasks(&machine(4), |env| {
            Box::pin(async move {
                let mine = tagged(env.rank() as u64 * 10);
                let all = gather(env, 0, mine).await.unwrap();
                all.iter()
                    .map(|b| b.cursor().read_u64())
                    .collect::<Vec<_>>()
            })
        });
        assert_eq!(got[0], vec![0, 10, 20, 30]);
        assert!(got[1].is_empty());
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let (got, _) = tasks(&machine(5), |env| {
            Box::pin(async move {
                let buf = if env.rank() == 1 {
                    let mut b = PackBuffer::new();
                    b.push_f64(6.75);
                    Some(b)
                } else {
                    None
                };
                broadcast(env, 1, buf).await.unwrap().cursor().read_f64()
            })
        });
        assert_eq!(got, vec![6.75; 5]);
    }

    #[test]
    fn barrier_completes() {
        // Just check that no rank deadlocks and all finish.
        let (got, _) = tasks(&machine(6), |env| {
            Box::pin(async move {
                barrier(env).await.unwrap();
                barrier(env).await.unwrap();
                env.rank()
            })
        });
        assert_eq!(got, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn allgather_everyone_sees_everyone() {
        let (got, _) = tasks(&machine(4), |env| {
            Box::pin(async move {
                let mine = tagged(env.rank() as u64 * 3);
                let all = allgather(env, mine).await.unwrap();
                all.iter()
                    .map(|b| b.cursor().read_u64())
                    .collect::<Vec<_>>()
            })
        });
        for ranks in got {
            assert_eq!(ranks, vec![0, 3, 6, 9]);
        }
    }

    #[test]
    fn allreduce_sums_elementwise() {
        let (got, _) = tasks(&machine(5), |env| {
            Box::pin(async move {
                let mine = vec![env.rank() as f64, 1.0, -(env.rank() as f64)];
                allreduce_sum(env, &mine).await.unwrap()
            })
        });
        // Σ ranks = 10, Σ 1 = 5, Σ -ranks = -10.
        for v in got {
            assert_eq!(v, vec![10.0, 5.0, -10.0]);
        }
    }

    #[test]
    fn collectives_work_on_a_torus() {
        use crate::topology::Topology;
        let m = Multicomputer::virtual_with_topology(
            4,
            MachineModel::new(1.0, 1.0, 1.0).with_hop_cost(2.0),
            Topology::Torus2D { pr: 2, pc: 2 },
        );
        let (got, _) = tasks(&m, |env| {
            Box::pin(async move {
                barrier(env).await.unwrap();
                let mine = tagged(env.rank() as u64);
                let all = allgather(env, mine).await.unwrap();
                barrier(env).await.unwrap();
                all.len()
            })
        });
        assert_eq!(got, vec![4; 4]);
    }

    #[test]
    fn scatterv_send_cost_accumulates_at_root() {
        let (_, ledgers) = tasks(&machine(2), |env| {
            Box::pin(async move {
                scatterv(env, 0, |_| {
                    let mut b = PackBuffer::new();
                    b.push_u64_slice(&[0; 9]);
                    b
                })
                .await
                .unwrap();
            })
        });
        // Root sends 2 messages of 9 elems: 2*(1 + 9*1) = 20 µs.
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 20.0);
        assert_eq!(ledgers[1].get(Phase::Send).as_micros(), 0.0);
    }

    #[test]
    fn scatterv_skips_dead_ranks_without_deadlock() {
        let plan = FaultPlan::new(0).with_dead_rank(2);
        let (got, _) = tasks(&machine(4).with_faults(plan), |env| {
            Box::pin(async move {
                match scatterv(env, 0, |dst| tagged(dst as u64 + 1)).await {
                    Ok(buf) => buf.cursor().read_u64(),
                    Err(CommError::PeerDead { rank }) => 1000 + rank as u64,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            })
        });
        assert_eq!(got, vec![1, 2, 1002, 4]);
    }

    #[test]
    fn gather_substitutes_empty_buffers_for_dead_ranks() {
        let plan = FaultPlan::new(0).with_dead_rank(1);
        let (got, _) = tasks(&machine(3).with_faults(plan), |env| {
            Box::pin(async move {
                let mine = tagged(env.rank() as u64);
                match gather(env, 0, mine).await {
                    Ok(all) => all.iter().map(|b| b.elem_count()).collect::<Vec<_>>(),
                    Err(_) => Vec::new(),
                }
            })
        });
        assert_eq!(
            got[0],
            vec![1, 0, 1],
            "dead rank 1 contributes an empty placeholder"
        );
    }

    #[test]
    fn allreduce_and_barrier_survive_death_of_rank_zero() {
        let plan = FaultPlan::new(0).with_dead_rank(0);
        let (got, _) = tasks(&machine(4).with_faults(plan), |env| {
            Box::pin(async move {
                if env.is_rank_dead(env.rank()) {
                    return vec![-1.0];
                }
                barrier(env).await.unwrap();
                let mine = [env.rank() as f64];
                let out = allreduce_sum(env, &mine).await.unwrap();
                barrier(env).await.unwrap();
                out
            })
        });
        // Alive ranks 1+2+3 = 6; the hub moved to rank 1.
        assert_eq!(got, vec![vec![-1.0], vec![6.0], vec![6.0], vec![6.0]]);
    }
}
