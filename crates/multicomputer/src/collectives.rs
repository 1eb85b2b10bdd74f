//! Collective operations built on the point-to-point primitives.
//!
//! The ops crate reduces norms with [`allreduce_sum`], an `async fn`
//! awaited inside a rank task (see [`crate::Multicomputer::run_tasks`]);
//! its only await points are receives. Every alive rank sends its vector
//! to a hub, which adds them and sends the sum back, matching the paper's
//! sequential-send cost model (`p × T_Startup + total_elems × T_Data`
//! charged at the hub).
//!
//! # Fault behavior
//!
//! [`allreduce_sum`] returns `Result<_, CommError>` and degrades gracefully
//! under a [`crate::fault::FaultPlan`] with dead ranks: dead peers are
//! skipped, the hub moves to the lowest *alive* rank, and a rank that is
//! itself dead gets [`CommError::PeerDead`] back immediately so rank tasks
//! can bail out without deadlocking the survivors.

use crate::engine::{CommError, Env};

/// Bail out of a collective when the calling rank itself is dead.
fn check_self_alive(env: &Env) -> Result<(), CommError> {
    if env.is_rank_dead(env.rank()) {
        Err(CommError::PeerDead { rank: env.rank() })
    } else {
        Ok(())
    }
}

/// `?` for the body of a collective's trace span: on error, close the
/// span opened by `Env::begin_span` before returning the error.
macro_rules! span_try {
    ($env:expr, $result:expr) => {
        match $result {
            Ok(v) => v,
            Err(e) => {
                $env.end_span();
                return Err(e);
            }
        }
    };
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
    fn allreduce_survives_death_of_rank_zero() {
        let plan = FaultPlan::new(0).with_dead_rank(0);
        let (got, _) = tasks(&machine(4).with_faults(plan), |env| {
            Box::pin(async move {
                if env.is_rank_dead(env.rank()) {
                    return vec![-1.0];
                }
                let mine = [env.rank() as f64];
                allreduce_sum(env, &mine).await.unwrap()
            })
        });
        // Alive ranks 1+2+3 = 6; the hub moved to rank 1.
        assert_eq!(got, vec![vec![-1.0], vec![6.0], vec![6.0], vec![6.0]]);
    }
}
