//! Multi-source ED distribution.
//!
//! The paper's schemes assume a *single* source processor holding the
//! global array, so the encode pass (`n²(1+3s)` operations) serialises on
//! it — visible as rank 0's long bar in any timeline. When the global
//! array is striped over `k` I/O processors (a parallel filesystem, `k`
//! reader ranks), each source can encode and send only its stripe and the
//! bottleneck drops by ≈ `k`.
//!
//! Striping is by global row (`row r` belongs to source `r mod k`), which
//! aligns stripes with CRS row segments: every row of every destination's
//! local array is encoded by exactly one source, and the receiver knows
//! which (`to_global(pid, lr, 0).0 mod k`), so the `k` buffers decode
//! without any cross-source merging. The scheme is therefore CRS-only —
//! a CCS column segment would interleave rows from every source.

use crate::compress::{CompressKind, Crs, LocalCompressed};
use crate::convert::IndexConverter;
use crate::dense::Dense2D;
use crate::error::SparsedistError;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::scan::PartScan;
use crate::schemes::pipeline::{recv_part, send_part};
use crate::schemes::{map_parts_counted, SchemeConfig};
use crate::wire::{self, WirePolicy};
use sparsedist_multicomputer::pack::UnpackError;
use sparsedist_multicomputer::{
    Env, Multicomputer, PackBuffer, Phase, PhaseLedger, RankTask, VirtualTime,
};

/// Result of a multi-source ED run.
#[derive(Debug, Clone)]
pub struct MultiSourceRun {
    /// Number of source processors (ranks `0..nsources`).
    pub nsources: usize,
    /// Per-rank ledgers.
    pub ledgers: Vec<PhaseLedger>,
    /// Per-rank compressed local arrays.
    pub locals: Vec<LocalCompressed>,
}

impl MultiSourceRun {
    /// The distribution time under the paper's accounting, generalised to
    /// many sources: the slowest source's encode+send plus the slowest
    /// receiver's decode.
    pub fn t_distribution(&self) -> VirtualTime {
        let src_max = self.ledgers[..self.nsources]
            .iter()
            .map(|l| l.get(Phase::Encode) + l.get(Phase::Send))
            .fold(VirtualTime::ZERO, VirtualTime::max);
        let dec_max = self
            .ledgers
            .iter()
            .map(|l| l.get(Phase::Decode))
            .fold(VirtualTime::ZERO, VirtualTime::max);
        src_max + dec_max
    }

    /// Total nonzeros distributed.
    pub fn total_nnz(&self) -> usize {
        self.locals.iter().map(|l| l.nnz()).sum()
    }
}

/// Encode the rows of part `pid` that belong to stripe `stripe` (of
/// `nsources`) into an ED buffer. Non-stripe rows are skipped entirely
/// (they cost this source nothing).
///
/// Two passes: the scan loop gathers the stripe's `(pointer, indices,
/// values)` streams with exactly the classic op charges (one op per
/// scanned cell, three per nonzero), then the policy's [`Codec`] lays the
/// segment-count wire layout down in one shot. Only the byte layout is
/// codec-dependent — the element count (`segments + 2·nnz`) and the ops
/// charged are identical under every format.
#[allow(clippy::too_many_arguments)]
fn encode_stripe(
    buf: &mut PackBuffer,
    global: &Dense2D,
    part: &dyn Partition,
    pid: usize,
    stripe: usize,
    nsources: usize,
    policy: &WirePolicy,
    ops: &mut OpCounter,
) {
    let (_, gcols) = part.global_shape();
    let s = PartScan::of(part, pid)
        .keep_rows(|gr| gr % nsources == stripe)
        .compress(global, CompressKind::Crs, ops);
    let codec = wire::codec_for(policy.format);
    let desc = codec.plan(gcols, &s.pointer, &s.indices, &s.values, policy);
    codec.begin_message(buf, desc);
    codec.encode_pairs(buf, &s.pointer, &s.indices, &s.values, desc);
}

/// Per-run state for one multi-source rank task, threaded through the
/// task API's context parameter (the `for<'e>` spawning closure cannot
/// capture these borrows itself).
struct MultiCtx<'a> {
    global: &'a Dense2D,
    part: &'a dyn Partition,
    nsources: usize,
    config: SchemeConfig,
    policy: WirePolicy,
}

/// One rank of the multi-source ED run: encode+send this rank's stripes
/// (sources only, fully synchronous), then receive one buffer per source
/// and decode. Awaits only inside [`recv_part`].
fn multi_task<'e>(
    ctx: &'e MultiCtx<'_>,
    env: &'e mut Env,
) -> RankTask<'e, Result<LocalCompressed, SparsedistError>> {
    let (global, part, nsources, config, policy) =
        (ctx.global, ctx.part, ctx.nsources, ctx.config, ctx.policy);
    Box::pin(async move {
        let p = env.nprocs();
        let me = env.rank();
        env.trace_scope("ED-multi");
        if env.is_rank_dead(me) {
            // A dead destination holds nothing; its slot reports an
            // empty local array of its own shape.
            let (lrows, _) = part.local_shape(me);
            let converter = IndexConverter::new(part, me, CompressKind::Crs);
            let bound = converter.local_index_bound(CompressKind::Crs);
            return Ok(LocalCompressed::Crs(Crs::from_raw(
                lrows,
                bound,
                vec![0; lrows + 1],
                vec![],
                vec![],
            )?));
        }
        if me < nsources {
            if config.overlap {
                // Overlapped: post each stripe buffer nonblocking as
                // soon as it is encoded, then drain the NIC once. The
                // per-destination encode charges sum to the batch
                // path's Encode total.
                // Dead destinations' stripes are still encoded (and
                // charged), exactly like the staged path — only the
                // send is skipped.
                for dst in 0..p {
                    let buf = env.phase(Phase::Encode, |env| {
                        let mut ops = OpCounter::new();
                        let (lrows, lcols) = part.local_shape(dst);
                        let mut buf = env
                            .arena()
                            .checkout((lrows / nsources + 1) * (lcols / 2 + 1) * 8);
                        encode_stripe(&mut buf, global, part, dst, me, nsources, &policy, &mut ops);
                        let n = ops.take();
                        env.trace_part_ops(&[(dst, n)]);
                        env.charge_ops(n);
                        buf
                    });
                    if env.is_rank_dead(dst) {
                        continue;
                    }
                    env.phase(Phase::Send, |env| {
                        send_part(env, dst, buf, config.chunk_elems, true)
                    })?;
                }
                env.phase(Phase::Send, |env| env.wait_all());
            } else {
                let bufs: Vec<PackBuffer> = env.phase(Phase::Encode, |env| {
                    let (bufs, counts) = {
                        let arena = env.arena();
                        map_parts_counted(p, |pid, ops| {
                            let (lrows, lcols) = part.local_shape(pid);
                            let mut buf =
                                arena.checkout((lrows / nsources + 1) * (lcols / 2 + 1) * 8);
                            encode_stripe(&mut buf, global, part, pid, me, nsources, &policy, ops);
                            buf
                        })
                    };
                    if env.is_tracing() {
                        let pairs: Vec<(usize, u64)> = counts.iter().copied().enumerate().collect();
                        env.trace_part_ops(&pairs);
                    }
                    env.charge_ops(counts.iter().sum());
                    bufs
                });
                env.phase(Phase::Send, |env| -> Result<(), SparsedistError> {
                    for (dst, buf) in bufs.into_iter().enumerate() {
                        if env.is_rank_dead(dst) {
                            continue;
                        }
                        send_part(env, dst, buf, config.chunk_elems, false)?;
                    }
                    Ok(())
                })?;
            }
        }

        // Receive one buffer per source and decode, steering each
        // segment to the source that owns its stripe.
        let mut msgs: Vec<PackBuffer> = Vec::with_capacity(nsources);
        for src in 0..nsources {
            msgs.push(recv_part(env, src, config.chunk_elems).await?);
        }
        let local = env.phase(
            Phase::Decode,
            |env| -> Result<LocalCompressed, SparsedistError> {
                let mut ops = OpCounter::new();
                let (lrows, _lcols) = part.local_shape(me);
                let converter = IndexConverter::new(part, me, CompressKind::Crs);
                let bound = converter.local_index_bound(CompressKind::Crs);
                // Row `lr` of this part was encoded by the source owning
                // its global row's stripe.
                let row_src: Vec<usize> = (0..lrows)
                    .map(|lr| part.to_global(me, lr, 0).0 % nsources)
                    .collect();
                // Decode each source's buffer up front — the codec owns
                // the byte layout (each source self-describes its own
                // negotiation byte), so the row merge below only sees
                // logical triples.
                let codec = wire::codec_for(policy.format);
                let mut triples = Vec::with_capacity(nsources);
                for (src, buf) in msgs.iter().enumerate() {
                    let nseg = row_src.iter().filter(|&&s| s == src).count();
                    let mut cursor = buf.cursor();
                    let desc = codec.open_message(&mut cursor)?;
                    let triple = codec.decode_pairs(&mut cursor, nseg, desc)?;
                    if !cursor.is_exhausted() {
                        return Err(UnpackError {
                            at: 0,
                            remaining: cursor.remaining(),
                        }
                        .into());
                    }
                    triples.push(triple);
                }
                // Merge rows in local order, charging exactly the classic
                // per-row and per-element ops (the decode above moved
                // bytes, never ops — formats stay clock-transparent).
                let mut next_seg = vec![0usize; nsources];
                let mut ro = Vec::with_capacity(lrows + 1);
                ro.push(0usize);
                ops.tick();
                let mut co = Vec::new();
                let mut vl = Vec::new();
                for lr in 0..lrows {
                    let src = row_src[lr];
                    let (pointer, indices, values) = &triples[src];
                    let seg = next_seg[src];
                    next_seg[src] += 1;
                    let (lo, hi) = (pointer[seg], pointer[seg + 1]);
                    ops.tick();
                    ro.push(ro[lr] + (hi - lo));
                    for k in lo..hi {
                        ops.tick();
                        co.push(converter.to_local(indices[k], &mut ops));
                        vl.push(values[k]);
                        ops.tick();
                    }
                }
                let n = ops.take();
                env.trace_part_ops(&[(me, n)]);
                env.charge_ops(n);
                Ok(LocalCompressed::Crs(Crs::from_raw(
                    lrows, bound, ro, co, vl,
                )?))
            },
        );
        for buf in msgs {
            env.arena().recycle_bytes(buf.into_bytes());
        }
        local
    })
}

/// Run the ED scheme with `nsources` source processors (CRS only).
///
/// Ranks `0..nsources` act as sources, each holding the row stripe
/// `r mod nsources`; every rank (sources included) receives its part.
///
/// # Errors
/// Returns [`SparsedistError::SourceDead`] if the fault plan kills any of
/// the source ranks, plus the usual communication/validation failures.
///
/// # Panics
/// Panics if `nsources` is zero or exceeds the machine size, or on the
/// usual partition mismatches.
pub fn run_ed_multi_source(
    machine: &Multicomputer,
    global: &Dense2D,
    part: &dyn Partition,
    nsources: usize,
) -> Result<MultiSourceRun, SparsedistError> {
    run_ed_multi_source_with(machine, global, part, nsources, SchemeConfig::default())
}

/// [`run_ed_multi_source`] with an explicit [`SchemeConfig`]. The decoded
/// state is independent of `config`; the wire format moves only bytes on
/// the wire, never a virtual-time phase total.
///
/// # Errors
/// Same failure modes as [`run_ed_multi_source`].
///
/// # Panics
/// Same conditions as [`run_ed_multi_source`].
pub fn run_ed_multi_source_with(
    machine: &Multicomputer,
    global: &Dense2D,
    part: &dyn Partition,
    nsources: usize,
    config: SchemeConfig,
) -> Result<MultiSourceRun, SparsedistError> {
    let p = machine.nprocs();
    assert!(
        nsources > 0 && nsources <= p,
        "nsources {nsources} out of 1..={p}"
    );
    assert_eq!(
        part.nparts(),
        p,
        "partition has {} parts, machine {p}",
        part.nparts()
    );
    assert_eq!(
        part.global_shape(),
        (global.rows(), global.cols()),
        "partition/array shape mismatch"
    );
    if let Some(plan) = machine.fault_plan() {
        if let Some(rank) = plan.dead_ranks().find(|&r| r < nsources) {
            return Err(SparsedistError::SourceDead { rank });
        }
    }

    let ctx = MultiCtx {
        global,
        part,
        nsources,
        config,
        policy: WirePolicy::new(config.wire, config.codec, machine.model()),
    };
    let (results, ledgers) = machine.run_tasks_with_ledgers(&ctx, |ctx, env| multi_task(ctx, env));
    let locals = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(MultiSourceRun {
        nsources,
        ledgers,
        locals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::paper_array_a;
    use crate::partition::{ColBlock, Mesh2D, RowBlock, RowCyclic};
    use crate::schemes::{run_scheme, SchemeKind};
    use crate::wire::WireFormat;
    use sparsedist_multicomputer::MachineModel;

    fn machine(p: usize) -> Multicomputer {
        Multicomputer::virtual_machine(p, MachineModel::ibm_sp2())
    }

    #[test]
    fn matches_single_source_ed_state() {
        let a = paper_array_a();
        let parts: Vec<Box<dyn Partition>> = vec![
            Box::new(RowBlock::new(10, 8, 4)),
            Box::new(ColBlock::new(10, 8, 4)),
            Box::new(Mesh2D::new(10, 8, 2, 2)),
            Box::new(RowCyclic::new(10, 8, 4)),
        ];
        for part in &parts {
            let single = run_scheme(
                SchemeKind::Ed,
                &machine(4),
                &a,
                part.as_ref(),
                CompressKind::Crs,
            )
            .unwrap();
            for k in [1, 2, 3, 4] {
                let multi = run_ed_multi_source(&machine(4), &a, part.as_ref(), k).unwrap();
                assert_eq!(multi.locals, single.locals, "k={k} {}", part.name());
                assert_eq!(multi.total_nnz(), 16);
            }
        }
    }

    #[test]
    fn encode_work_splits_across_sources() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let single = run_ed_multi_source(&machine(4), &a, &part, 1).unwrap();
        let multi = run_ed_multi_source(&machine(4), &a, &part, 4).unwrap();
        let encode_max = |r: &MultiSourceRun| -> f64 {
            r.ledgers
                .iter()
                .map(|l| l.get(Phase::Encode).as_micros())
                .fold(0.0, f64::max)
        };
        // 4 sources each scan ~1/4 of the cells.
        assert!(encode_max(&multi) < encode_max(&single) / 2.0);
        // Total encode work is unchanged (sum over sources).
        let total = |r: &MultiSourceRun| -> f64 {
            r.ledgers
                .iter()
                .map(|l| l.get(Phase::Encode).as_micros())
                .sum()
        };
        assert!((total(&multi) - total(&single)).abs() < 1e-9);
    }

    #[test]
    fn distribution_time_improves_with_sources() {
        // On a bigger array the encode+send pipeline parallelises.
        let mut a = Dense2D::zeros(64, 64);
        for i in 0..410 {
            a.set((i * 7) % 64, (i * 13 + i / 64) % 64, 1.0 + i as f64);
        }
        let part = RowBlock::new(64, 64, 8);
        let one = run_ed_multi_source(&machine(8), &a, &part, 1).unwrap();
        let four = run_ed_multi_source(&machine(8), &a, &part, 4).unwrap();
        assert!(
            four.t_distribution() < one.t_distribution(),
            "4 sources {} !< 1 source {}",
            four.t_distribution(),
            one.t_distribution()
        );
    }

    #[test]
    fn v3_config_matches_default_run() {
        // The wire format is transparent to both the decoded state and the
        // paper's clock: elements on the wire and ops charged are
        // identical under every format.
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        for k in [1, 2, 4] {
            let base = run_ed_multi_source(&machine(4), &a, &part, k).unwrap();
            let v3 = run_ed_multi_source_with(
                &machine(4),
                &a,
                &part,
                k,
                SchemeConfig {
                    wire: WireFormat::V3,
                    ..SchemeConfig::default()
                },
            )
            .unwrap();
            assert_eq!(base.locals, v3.locals, "k={k}");
            assert_eq!(base.t_distribution(), v3.t_distribution(), "k={k}");
        }
    }

    #[test]
    fn overlap_preserves_state_and_shrinks_distribution() {
        let mut a = Dense2D::zeros(64, 64);
        for i in 0..410 {
            a.set((i * 7) % 64, (i * 13 + i / 64) % 64, 1.0 + i as f64);
        }
        let part = RowBlock::new(64, 64, 8);
        for k in [1, 2, 4] {
            let plain = run_ed_multi_source(&machine(8), &a, &part, k).unwrap();
            let over =
                run_ed_multi_source_with(&machine(8), &a, &part, k, SchemeConfig::overlapped())
                    .unwrap();
            assert_eq!(plain.locals, over.locals, "k={k}");
            // Per-destination encode charges sum to the batch total (up to
            // f64 summation order), and the NIC hides transfers behind the
            // next stripe's encode.
            for (rank, (p, o)) in plain.ledgers.iter().zip(&over.ledgers).enumerate() {
                let (pe, oe) = (
                    p.get(Phase::Encode).as_micros(),
                    o.get(Phase::Encode).as_micros(),
                );
                assert!((pe - oe).abs() < 1e-6, "k={k} rank {rank}: {pe} vs {oe}");
                assert_eq!(p.get(Phase::Decode), o.get(Phase::Decode), "k={k} {rank}");
            }
            assert!(
                over.t_distribution() < plain.t_distribution(),
                "k={k}: {} !< {}",
                over.t_distribution(),
                plain.t_distribution()
            );
        }
    }

    #[test]
    fn chunking_preserves_state_and_adds_prefix_elements() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        for k in [1, 2, 4] {
            let plain = run_ed_multi_source(&machine(4), &a, &part, k).unwrap();
            let chunked = run_ed_multi_source_with(
                &machine(4),
                &a,
                &part,
                k,
                SchemeConfig {
                    chunk_elems: 3,
                    ..SchemeConfig::default()
                },
            )
            .unwrap();
            assert_eq!(plain.locals, chunked.locals, "k={k}");
            let elems =
                |r: &MultiSourceRun| -> u64 { r.ledgers.iter().map(|l| l.wire().elements).sum() };
            // One u64 chunk-count prefix per logical message: each of the
            // k sources sends one stripe buffer to each of the 4 ranks.
            assert_eq!(elems(&chunked), elems(&plain) + 4 * k as u64, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "nsources")]
    fn too_many_sources_rejected() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let _ = run_ed_multi_source(&machine(4), &a, &part, 5);
    }

    use crate::dense::Dense2D;
}
