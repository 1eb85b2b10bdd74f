//! The traced run: per-layer host time, measured from outside the program
//! by spans around calls into each layer's public functions.
//!
//! Each pass runs the user's path twice (untraced, then traced, so the
//! difference is the tracing overhead and their outputs must agree), then
//! replays every scheme's stages on the same input through the stages'
//! public functions, then probes the engine, pack, ops and host layers.

use crate::path::{self, label, Digest, Input, State, Wire, TOL};
use crate::spans::Tracer;
use crate::workload::{self, Matrix, Spec};
use crate::{Counters, Metric};
use sparsedist_core::compress::{compress_dense, CompressKind, Crs};
use sparsedist_core::dense::Dense2D;
use sparsedist_core::encode::{decode_part_wire, encode_part_into};
use sparsedist_core::opcount::OpCounter;
use sparsedist_core::partition::{Partition, RowBlock};
use sparsedist_core::schemes::{run_scheme_with, SchemeConfig, SchemeKind};
use sparsedist_core::wire::{
    pack_triple_into, pack_values_into, unpack_triple, unpack_values, WirePolicy,
};
use sparsedist_multicomputer::{
    CommError, EngineKind, Env, MachineModel, Multicomputer, PackBuffer,
};
use sparsedist_ops::solve::{conjugate_gradient, Stop};
use sparsedist_ops::spmv::{crs_spmv, distributed_spmv_ledgers};
use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::time::Instant;

/// Repetitions of the short probes, so each has several samples.
const THREADED_RUNS: usize = 20;
const SPMV_CALLS: usize = 10;
const MEMCPY_COPIES: usize = 3;

/// Probe sizes; `tiny` shrinks them for the smoke test.
struct ProbeSizes {
    /// Ranks of the event-loop fan-out.
    fan_procs: usize,
    /// Ranks of the empty threaded-engine run.
    threaded_procs: usize,
    /// Bytes per memcpy array: 256 MiB, below the 300 MiB LLC of the
    /// reference host, so the copy is partly cache-resident.
    memcpy_bytes: usize,
}

impl ProbeSizes {
    fn new(tiny: bool) -> Self {
        ProbeSizes {
            fan_procs: if tiny { 256 } else { 16384 },
            threaded_procs: if tiny { 4 } else { 16 },
            memcpy_bytes: if tiny { 4 << 20 } else { 256 << 20 },
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One traced pass; returns its per-layer metrics and the traced path's
/// digest.
pub fn pass(
    spec: &Spec,
    input: &Input,
    seed: u64,
    tiny: bool,
    tr: &mut Tracer,
    c: &mut Counters,
) -> (Vec<Metric>, Digest) {
    let mut off = Tracer::new(false);
    let t = Instant::now();
    let plain = path::run(spec, input, &mut off);
    let plain_s = t.elapsed().as_secs_f64();
    c.add(plain.attempted, plain.failed);
    let plain_digest = plain.digest;
    drop(plain.state);

    let t = Instant::now();
    let traced = path::run(spec, input, tr);
    let traced_s = t.elapsed().as_secs_f64();
    c.add(traced.attempted, traced.failed);
    c.check(
        traced.digest == plain_digest,
        "traced and untraced runs report different wire bytes, makespans or iterations",
    );

    let replayed = match &traced.state {
        Some(state) => replay(spec, state, &traced.digest, tr, c),
        None => Wire::default(),
    };
    drop(traced.state);
    let sizes = ProbeSizes::new(tiny);
    let engine_ok = engine_probe(&sizes, tr);
    c.check(engine_ok, "engine probe delivered wrong payloads");
    let ops = ops_probe(seed, tiny, tr, c);
    let memcpy_bytes = memcpy_probe(&sizes, tr);
    let push_bytes = pack_probe(spec.matrix, tr);

    let totals = tr.totals(tr.pass());
    let total = |name: &'static str, tag: &'static str| {
        totals.get(&(name, tag)).copied().unwrap_or_default()
    };
    let self_s = |name, tag| total(name, tag).self_s;
    let count = |name, tag| total(name, tag).count as f64;
    let n = spec.matrix.n() as f64;
    let cells = n * n;
    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    let read_s = self_s("gen.matrixmarket.read_file", "");
    put("gen.matrixmarket.read_s", read_s, "s");
    put(
        "gen.matrixmarket.ns_per_nnz",
        ratio(read_s * 1e9, input.nnz as f64),
        "ns",
    );
    put("gen.matrixmarket.file_bytes", input.file_bytes as f64, "B");

    put(
        "core.compress.validate_s",
        self_s("core.compress.validate", ""),
        "s",
    );
    put(
        "core.compress.to_dense_s",
        self_s("core.compress.to_dense", ""),
        "s",
    );
    put("core.compress.dense_bytes", cells * 8.0, "B");
    let fpg = self_s("core.compress.from_part_global", "cfs");
    put("core.compress.from_part_global_s", fpg, "s");
    put(
        "core.compress.from_dense_s",
        self_s("core.compress.compress_dense", "sfc"),
        "s",
    );
    put("core.compress.ns_per_cell", ratio(fpg * 1e9, cells), "ns");
    put(
        "core.partition.extract_s",
        self_s("core.partition.extract_dense", "sfc"),
        "s",
    );

    let enc = self_s("core.encode.encode_part_into", "ed");
    put("core.encode.encode_s", enc, "s");
    put(
        "core.encode.decode_s",
        self_s("core.encode.decode_part_wire", "ed"),
        "s",
    );
    put("core.encode.ns_per_cell", ratio(enc * 1e9, cells), "ns");

    for (tag, pack, unpack) in [
        (
            "sfc",
            "core.wire.pack_values_into",
            "core.wire.unpack_values",
        ),
        (
            "cfs",
            "core.wire.pack_triple_into",
            "core.wire.unpack_triple",
        ),
    ] {
        put(&format!("core.wire.pack_s.{tag}"), self_s(pack, tag), "s");
        put(
            &format!("core.wire.unpack_s.{tag}"),
            self_s(unpack, tag),
            "s",
        );
    }
    put(
        "core.wire.bytes_per_elem",
        ratio(replayed.bytes as f64, replayed.elements as f64),
        "B/elem",
    );

    let mut reassemble_s = 0.0;
    for scheme in SchemeKind::ALL {
        let tag = label(scheme);
        let run_s = self_s("core.schemes.run_scheme_with", tag);
        // Every replayed stage is a leaf tagged with its scheme.
        let stages: f64 = totals
            .iter()
            .filter(|((n, t), _)| {
                *t == tag && n.starts_with("core.") && !n.starts_with("core.schemes.")
            })
            .map(|(_, v)| v.self_s)
            .sum();
        put(&format!("core.schemes.run_s.{tag}"), run_s, "s");
        put(&format!("core.schemes.driver_s.{tag}"), run_s - stages, "s");
        reassemble_s += self_s("core.schemes.reassemble", tag);
    }
    put("core.schemes.reassemble_s", reassemble_s, "s");
    let mut wire = Wire::default();
    for s in &traced.digest.schemes {
        let tag = label(s.scheme);
        put(
            &format!("core.schemes.t_distribution_ms.{tag}"),
            s.t_distribution_ms,
            "virtual_ms",
        );
        put(
            &format!("core.schemes.t_compression_ms.{tag}"),
            s.t_compression_ms,
            "virtual_ms",
        );
        wire.add(s.wire);
    }
    put("core.schemes.messages", wire.messages as f64, "count");
    put("core.schemes.elements", wire.elements as f64, "count");

    put(
        "multicomputer.engine.event_ns_per_msg",
        ratio(
            self_s("multicomputer.engine.run_tasks", "fanout") * 1e9,
            (sizes.fan_procs - 1) as f64,
        ),
        "ns",
    );
    put(
        "multicomputer.engine.threaded_run_us",
        ratio(
            self_s("multicomputer.engine.run", "empty") * 1e6,
            count("multicomputer.engine.run", "empty"),
        ),
        "us",
    );
    put(
        "multicomputer.pack.push_gbps",
        ratio(
            push_bytes / 1e9,
            self_s("multicomputer.pack.push_f64_slice", ""),
        ),
        "GB/s",
    );

    let calls = count("ops.spmv.distributed_spmv_ledgers", "");
    put(
        "ops.spmv.distributed_us",
        ratio(self_s("ops.spmv.distributed_spmv_ledgers", "") * 1e6, calls),
        "us",
    );
    put(
        "ops.spmv.messages_per_call",
        ratio(ops.wire.messages as f64, calls),
        "count",
    );
    put(
        "ops.spmv.bytes_per_call",
        ratio(ops.wire.bytes as f64, calls),
        "B",
    );
    put(
        "ops.spmv.local_us",
        ratio(
            self_s("ops.spmv.crs_spmv", "") * 1e6,
            count("ops.spmv.crs_spmv", ""),
        ),
        "us",
    );
    let cg_s = self_s("ops.solve.conjugate_gradient", "probe");
    put("ops.solve.solve_s", cg_s, "s");
    put("ops.solve.iters", ops.iters as f64, "count");
    put(
        "ops.solve.us_per_iter",
        ratio(cg_s * 1e6, ops.iters as f64),
        "us",
    );
    put(
        "ops.solve.serial_cg_s",
        self_s("ops.solve.serial_cg", ""),
        "s",
    );

    put(
        "host.memcpy_gbps",
        ratio(memcpy_bytes / 1e9, self_s("host.memcpy", "")),
        "GB/s",
    );
    put(
        "host.memcpy_mib",
        sizes.memcpy_bytes as f64 / f64::from(1 << 20),
        "MiB",
    );
    put("host.trace_overhead_s", traced_s - plain_s, "s");
    (m, traced.digest)
}

/// Replay each scheme's stages part by part on the run's own input, and
/// check that they put exactly the run's elements and bytes on the wire.
fn replay(spec: &Spec, state: &State, digest: &Digest, tr: &mut Tracer, c: &mut Counters) -> Wire {
    let policy = WirePolicy::new(spec.config.wire, spec.config.codec, state.machine.model());
    let format = spec.config.wire;
    let (a, part) = (&state.a, &state.part);
    let (_, gcols) = part.global_shape();
    let kind = CompressKind::Crs;
    let mut all = Wire::default();
    for scheme in SchemeKind::ALL {
        let tag = label(scheme);
        let open = tr.open("replay", tag);
        let mut ops = OpCounter::new();
        let mut wire = Wire::default();
        let mut decoded = true;
        for pid in 0..part.nparts() {
            let (lrows, lcols) = part.local_shape(pid);
            let mut buf = PackBuffer::new();
            match scheme {
                SchemeKind::Sfc => {
                    let dense = tr.leaf("core.partition.extract_dense", tag, || {
                        part.extract_dense(a, pid)
                    });
                    tr.leaf("core.wire.pack_values_into", tag, || {
                        pack_values_into(&mut buf, dense.as_slice(), &policy)
                    });
                    let values = tr.leaf("core.wire.unpack_values", tag, || {
                        unpack_values(&mut buf.cursor(), lrows * lcols, format)
                    });
                    match values {
                        Ok(v) => {
                            let local = Dense2D::from_vec(lrows, lcols, v);
                            black_box(tr.leaf("core.compress.compress_dense", tag, || {
                                compress_dense(kind, &local, &mut ops)
                            }));
                        }
                        Err(_) => decoded = false,
                    }
                }
                SchemeKind::Cfs => {
                    let crs = tr.leaf("core.compress.from_part_global", tag, || {
                        Crs::from_part_global(a, part, pid, &mut ops)
                    });
                    tr.leaf("core.wire.pack_triple_into", tag, || {
                        pack_triple_into(&mut buf, crs.ro(), crs.co(), crs.vl(), gcols, &policy)
                    });
                    decoded &= tr
                        .leaf("core.wire.unpack_triple", tag, || {
                            unpack_triple(&mut buf.cursor(), lrows, format)
                        })
                        .is_ok();
                }
                SchemeKind::Ed => {
                    tr.leaf("core.encode.encode_part_into", tag, || {
                        encode_part_into(&mut buf, a, part, pid, kind, &policy, &mut ops)
                    });
                    decoded &= tr
                        .leaf("core.encode.decode_part_wire", tag, || {
                            decode_part_wire(&buf, part, pid, kind, format, &mut ops)
                        })
                        .is_ok();
                }
            }
            wire.add(Wire {
                messages: 1,
                elements: buf.elem_count(),
                bytes: buf.byte_len() as u64,
            });
        }
        tr.close(open);
        c.check(
            decoded,
            format!("{tag} replay failed to decode its own buffers"),
        );
        let run = digest
            .schemes
            .iter()
            .find(|s| s.scheme == scheme)
            .map(|s| s.wire);
        c.check(
            run.is_some_and(|r| (r.elements, r.bytes) == (wire.elements, wire.bytes)),
            format!("{tag} replay moved {wire:?}, the run's ledgers {run:?}"),
        );
        all.add(wire);
    }
    all
}

type FanFuture<'e> = Pin<Box<dyn Future<Output = Result<bool, CommError>> + 'e>>;

/// Rank 0 sends every other rank its own id; each checks what it got.
fn fan_task<'e>(_: &'e (), env: &'e mut Env) -> FanFuture<'e> {
    Box::pin(async move {
        let me = env.rank();
        if me == 0 {
            for dst in 1..env.nprocs() {
                let mut b = PackBuffer::with_capacity(1);
                b.push_u64(dst as u64);
                env.send(dst, b)?;
            }
            return Ok(true);
        }
        let msg = env.recv_async(0).await?;
        Ok(msg.payload.cursor().try_read_usize().ok() == Some(me))
    })
}

/// Event-loop fan-out and empty threaded runs; true if all delivered.
fn engine_probe(sizes: &ProbeSizes, tr: &mut Tracer) -> bool {
    let model = MachineModel::ibm_sp2();
    let fan =
        Multicomputer::virtual_machine(sizes.fan_procs, model).with_engine(EngineKind::EventLoop);
    let got = tr.leaf("multicomputer.engine.run_tasks", "fanout", || {
        fan.run_tasks(&(), fan_task)
    });
    let mut ok = got.into_iter().all(|r| r.unwrap_or(false));
    let threaded = Multicomputer::virtual_machine(sizes.threaded_procs, model);
    for _ in 0..THREADED_RUNS {
        let ranks = tr.leaf("multicomputer.engine.run", "empty", || {
            threaded.run(|env| env.rank())
        });
        ok &= ranks.into_iter().eq(0..sizes.threaded_procs);
    }
    ok
}

/// Push the workload's dense array into one buffer; returns bytes pushed.
fn pack_probe(matrix: Matrix, tr: &mut Tracer) -> f64 {
    let n = matrix.n();
    let values = vec![1.5f64; n * n];
    let mut buf = PackBuffer::with_capacity(n * n);
    tr.leaf("multicomputer.pack.push_f64_slice", "", || {
        buf.push_f64_slice(&values)
    });
    black_box(&buf);
    (n * n * 8) as f64
}

/// Copy between two touched arrays; returns bytes copied.
fn memcpy_probe(sizes: &ProbeSizes, tr: &mut Tracer) -> f64 {
    let src = vec![1u8; sizes.memcpy_bytes];
    let mut dst = vec![2u8; sizes.memcpy_bytes];
    for _ in 0..MEMCPY_COPIES {
        tr.leaf("host.memcpy", "", || dst.copy_from_slice(black_box(&src)));
        black_box(&mut dst);
    }
    (sizes.memcpy_bytes * MEMCPY_COPIES) as f64
}

struct OpsOut {
    wire: Wire,
    iters: usize,
}

/// SpMV and CG on the `cg-laplacian` system (distributed by ED), the same
/// system on every workload: the ops layers' rates.
fn ops_probe(seed: u64, tiny: bool, tr: &mut Tracer, c: &mut Counters) -> OpsOut {
    let mut out = OpsOut {
        wire: Wire::default(),
        iters: 0,
    };
    let cg = workload::spec("cg-laplacian", tiny).expect("cg-laplacian is a known workload");
    let n = cg.matrix.n();
    let coo = workload::generate(cg.matrix, seed);
    let part = RowBlock::new(n, n, cg.procs);
    let machine = Multicomputer::virtual_machine(cg.procs, MachineModel::ibm_sp2());
    let run = run_scheme_with(
        SchemeKind::Ed,
        &machine,
        &coo.to_dense(),
        &part,
        CompressKind::Crs,
        SchemeConfig::default(),
    );
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            c.check(false, format!("ops probe distribution: {e}"));
            return out;
        }
    };
    let crs = Crs::from_triplets(n, n, coo.entries(), &mut OpCounter::new());
    let x = workload::rhs(n, seed ^ 0x5EED);
    let serial = crs_spmv(&crs, &x);
    for _ in 0..SPMV_CALLS {
        let got = tr.leaf("ops.spmv.distributed_spmv_ledgers", "", || {
            distributed_spmv_ledgers(&machine, &run, &part, &x)
        });
        let same = match got {
            Ok((y, ledgers)) => {
                out.wire.add(Wire::of_ledgers(&ledgers));
                y == serial
            }
            Err(_) => false,
        };
        c.check(same, "distributed SpMV differs from the serial product");
    }
    for _ in 0..SPMV_CALLS {
        black_box(tr.leaf("ops.spmv.crs_spmv", "", || crs_spmv(&crs, &x)));
    }

    let b = workload::rhs(n, seed);
    let sol = tr.leaf("ops.solve.conjugate_gradient", "probe", || {
        conjugate_gradient(&machine, &run, &part, &b, TOL, 10 * n)
    });
    let serial = tr.leaf("ops.solve.serial_cg", "", || {
        serial_cg(&crs, &b, TOL, 10 * n)
    });
    match (sol, serial) {
        (Ok(s), Some((serial_iters, serial_x))) => {
            let iters = match s.stop {
                Stop::Converged(it) => it,
                Stop::MaxIters(_) => 0,
            };
            out.iters = iters;
            c.check(iters > 0, "probe CG did not converge");
            c.check(
                path::residual(&coo, &b, &s.x) <= TOL,
                "probe CG residual above tolerance",
            );
            c.check(
                serial_iters == iters && serial_x == s.x,
                "serial CG disagrees with distributed CG",
            );
        }
        _ => c.check(false, "probe CG failed"),
    }
    out
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The library's CG with a single-threaded `crs_spmv` in place of the
/// distributed product: the serial baseline. Returns iterations and `x`.
fn serial_cg(a: &Crs, b: &[f64], tol: f64, max_iters: usize) -> Option<(usize, Vec<f64>)> {
    let mut x = vec![0.0; b.len()];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rr = dot(&r, &r);
    if rr.sqrt() <= tol {
        return Some((0, x));
    }
    for it in 0..max_iters {
        let ap = crs_spmv(a, &p);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            return None;
        }
        let alpha = rr / pap;
        for i in 0..b.len() {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_next = dot(&r, &r);
        if rr_next.sqrt() <= tol {
            return Some((it + 1, x));
        }
        let beta = rr_next / rr;
        for i in 0..b.len() {
            p[i] = r[i] + beta * p[i];
        }
        rr = rr_next;
    }
    None
}
