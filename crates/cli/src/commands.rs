//! The `sparsedist` subcommands.

use crate::args::Parsed;
use sparsedist::array::DistributedSparseArray;
use sparsedist_core::compress::{Ccs, CompressKind, Coo, Crs};
use sparsedist_core::cost::{predict, CostInput, PartitionMethod};
use sparsedist_core::dense::Dense2D;
use sparsedist_core::error::SparsedistError;
use sparsedist_core::gather::GatherStrategy;
use sparsedist_core::partition::{ColBlock, ColCyclic, Mesh2D, Partition, RowBlock, RowCyclic};
use sparsedist_core::redistribute::RedistStrategy;
use sparsedist_core::schemes::{run_scheme, run_scheme_with, SchemeConfig, SchemeKind};
use sparsedist_core::wire::{self, CodecChoice, StreamBytes, WireFormat, WirePolicy};
use sparsedist_gen::{matrixmarket, patterns, SparseRandom};
use sparsedist_multicomputer::timing::{render_fault_summary, render_timeline};
use sparsedist_multicomputer::{
    chrome_trace_json, metrics_json, render_phase_table, render_waterfall, EngineKind, FaultPlan,
    MachineModel, MemorySink, Multicomputer, Phase, RankTrace, RetryPolicy,
};
use sparsedist_ops::spmv::distributed_spmv;
use std::fmt::Write as _;
use std::sync::Arc;

/// Help text.
pub const USAGE: &str = "\
sparsedist — sparse array distribution toolkit

USAGE:
  sparsedist gen OUT.mtx [--rows N] [--cols N] [--ratio S] [--seed K]
                         [--pattern uniform|banded|laplacian|clustered] [--bandwidth N]
  sparsedist info FILE.mtx
  sparsedist distribute FILE.mtx [--scheme sfc|cfs|ed] [--partition row|column|mesh|rowcyclic|colcyclic]
                         [--procs P] [--grid RxC] [--kind crs|ccs] [--model sp2|compute|network]
                         [--timeline yes] [--faults SPEC] [--retries N]
                         [--wire v1|v2|v3] [--codec auto|raw|delta|packed]
                         [--parallel yes] [--overlap yes]
                         [--chunk-elems N] [--streams yes] [--trace OUT.json]

  --faults takes comma-separated key=value tokens, e.g.
  'seed=7,drop=0.2' or 'dead=2' or 'corrupt@0-1=0.5,phase=send' or
  'die=1:500' (rank 1 dies 500 µs into the run; parts re-homed mid-stream);
  --retries bounds retransmissions per message (default 6);
  --overlap sends each part as soon as it is encoded (nonblocking isend);
  --chunk-elems streams each part as framed chunks of at most N elements;
  --wire v3 layers per-stream codecs under a negotiation byte; --codec
  forces one ('auto' prices encode CPU against wire bytes per message
  with the --model coefficients — the Remark-5 crossover at runtime);
  --streams prints the per-stream bytes report (indices vs values, raw
  vs encoded) behind the README bytes/element table;
  --trace writes a Chrome-trace JSON of the run (load in Perfetto).
  Every rank runs as a task on one deterministic event loop, so --procs
  goes up to 131072 on every subcommand.
  sparsedist trace FILE.mtx [--scheme …] [--partition …] [--procs P] [--grid RxC]
                         [--kind …] [--model …] [--faults SPEC] [--retries N]
                         [--wire …] [--codec …] [--parallel yes] [--overlap yes]
                         [--chunk-elems N] [--width N]
                         [--out TRACE.json] [--metrics METRICS.json]
  sparsedist chaos [--seeds N] [--procs P] [--rows N] [--ratio S]
                         [--scheme sfc|cfs|ed|all] [--retries N]
                         [--wire v1|v2|v3] [--codec auto|raw|delta|packed]
                         [--parallel yes] [--overlap yes]
                         [--chunk-elems N]

  chaos sweeps N deterministically seeded fault plans (drops, corruption,
  delays, mid-run rank deaths) over the chosen scheme(s), verifying that
  every run either reconstructs the golden array exactly or fails with a
  typed error — never a panic or a hang (the event loop's deadlock
  watchdog trips protocol stalls). The same seeds always generate the
  same plans.
  sparsedist simcheck [--procs P] [--rows N] [--ratio S] [--scheme sfc|cfs|ed]
                         [--config pipeline|routed|chaos|all] [--seeds N]
                         [--max-schedules N]

  simcheck drives one scheme run on the deterministic event loop through
  EVERY message-delivery interleaving (--procs 2..=4; the explorer
  branches the scheduler wherever more than one rank is runnable and
  sweeps the tree depth-first by replay) and verifies that ledgers,
  local arrays and owner maps are bit-identical across all schedules
  and that no schedule deadlocks — the dynamic twin of the lint C
  rules. 'routed' injects a mid-stream rank death so parts re-home
  while frames are in flight; 'chaos' sweeps --seeds seeded fault
  plans. Nonzero exit on divergence, deadlock or truncation.
  sparsedist advise FILE.mtx [--procs P] [--model sp2|compute|network]
  sparsedist spmv FILE.mtx [--procs P] [--scheme ed] [--partition …] [--grid RxC]
                         [--faults SPEC] [--retries N]
  sparsedist checkpoint FILE.mtx DIR [--procs P] [--scheme ed] [--partition …]
                         [--grid RxC] [--faults SPEC] [--retries N]
  sparsedist restore DIR OUT.mtx [--procs P] [--partition …] [--grid RxC]
                         [--rows R] [--cols C]
  sparsedist pipeline FILE.mtx [--procs P] [--grid RxC] [--faults SPEC] [--retries N]
  sparsedist help

  Each subcommand accepts only the flags listed for it; any other
  --flag is an error.
";

/// Command error: a plain message.
pub type CmdError = String;

fn parse_scheme(s: &str) -> Result<SchemeKind, CmdError> {
    match s {
        "sfc" => Ok(SchemeKind::Sfc),
        "cfs" => Ok(SchemeKind::Cfs),
        "ed" => Ok(SchemeKind::Ed),
        other => Err(format!("unknown scheme '{other}' (sfc|cfs|ed)")),
    }
}

fn parse_kind(s: &str) -> Result<CompressKind, CmdError> {
    match s {
        "crs" => Ok(CompressKind::Crs),
        "ccs" => Ok(CompressKind::Ccs),
        other => Err(format!("unknown compression '{other}' (crs|ccs)")),
    }
}

fn parse_wire(s: &str) -> Result<WireFormat, CmdError> {
    match s {
        "v1" => Ok(WireFormat::V1),
        "v2" => Ok(WireFormat::V2),
        "v3" => Ok(WireFormat::V3),
        other => Err(format!("unknown wire format '{other}' (v1|v2|v3)")),
    }
}

fn parse_codec(s: &str) -> Result<CodecChoice, CmdError> {
    match s {
        "auto" => Ok(CodecChoice::Auto),
        "raw" => Ok(CodecChoice::Raw),
        "delta" => Ok(CodecChoice::Delta),
        "packed" => Ok(CodecChoice::Packed),
        other => Err(format!("unknown codec '{other}' (auto|raw|delta|packed)")),
    }
}

fn parse_model(s: &str) -> Result<MachineModel, CmdError> {
    match s {
        "sp2" => Ok(MachineModel::ibm_sp2()),
        "compute" => Ok(MachineModel::compute_bound()),
        "network" => Ok(MachineModel::network_bound()),
        other => Err(format!("unknown model '{other}' (sp2|compute|network)")),
    }
}

fn parse_grid(s: &str) -> Result<(usize, usize), CmdError> {
    let (a, b) = s
        .split_once('x')
        .ok_or_else(|| format!("grid '{s}' must look like 2x2"))?;
    let pr: usize = a.parse().map_err(|_| format!("bad grid rows '{a}'"))?;
    let pc: usize = b.parse().map_err(|_| format!("bad grid cols '{b}'"))?;
    if pr == 0 || pc == 0 {
        return Err(format!(
            "grid '{s}' needs at least one row and one column of processors"
        ));
    }
    Ok((pr, pc))
}

fn build_partition(
    p: &Parsed,
    rows: usize,
    cols: usize,
    procs: usize,
) -> Result<Box<dyn Partition>, CmdError> {
    match p.flag_or("partition", "row") {
        "row" => Ok(Box::new(RowBlock::new(rows, cols, procs))),
        "column" => Ok(Box::new(ColBlock::new(rows, cols, procs))),
        "rowcyclic" => Ok(Box::new(RowCyclic::new(rows, cols, procs))),
        "colcyclic" => Ok(Box::new(ColCyclic::new(rows, cols, procs))),
        "mesh" => {
            let (pr, pc) = parse_grid(p.flag_or("grid", "2x2"))?;
            if pr * pc != procs {
                return Err(format!("grid {pr}x{pc} does not match --procs {procs}"));
            }
            Ok(Box::new(Mesh2D::new(rows, cols, pr, pc)))
        }
        other => Err(format!(
            "unknown partition '{other}' (row|column|mesh|rowcyclic|colcyclic)"
        )),
    }
}

/// Reject a `--procs` the engine cannot run — zero, or beyond the event
/// loop's ceiling — with a typed error instead of a constructor panic.
fn check_procs(procs: usize) -> Result<(), CmdError> {
    if procs == 0 {
        return Err("--procs 0: a machine needs at least one processor".into());
    }
    let max = EngineKind::EventLoop.max_procs();
    if procs > max {
        return Err(SparsedistError::MachineTooLarge { procs, max }.to_string());
    }
    Ok(())
}

/// The `--procs` flag (or `default`), checked by [`check_procs`].
fn procs_flag(p: &Parsed, default: usize) -> Result<usize, CmdError> {
    let procs = p.usize_or("procs", default).map_err(|e| e.to_string())?;
    check_procs(procs)?;
    Ok(procs)
}

/// Build the simulated machine, honouring the shared `--faults SPEC` and
/// `--retries N` flags.
fn build_machine(p: &Parsed, procs: usize, model: MachineModel) -> Result<Multicomputer, CmdError> {
    let mut machine = Multicomputer::virtual_machine(procs, model);
    if let Some(spec) = p.flags.get("faults") {
        let plan = FaultPlan::parse(spec).map_err(|e| e.to_string())?;
        machine = machine.with_faults(plan);
    }
    if p.flags.contains_key("retries") {
        let retries = p.usize_or("retries", 6).map_err(|e| e.to_string())?;
        let retries = u32::try_from(retries).unwrap_or(u32::MAX);
        machine = machine.with_retry_policy(RetryPolicy::with_retries(retries));
    }
    Ok(machine)
}

fn load(path: &str) -> Result<Dense2D, CmdError> {
    let coo = matrixmarket::read_file(path).map_err(|e| format!("{path}: {e}"))?;
    coo.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(coo.to_dense())
}

/// Write `text` to `path`, funnelling I/O failures through
/// [`SparsedistError::Io`] instead of panicking.
fn write_text(path: &str, text: &str) -> Result<(), CmdError> {
    std::fs::write(path, text).map_err(|e| SparsedistError::io(path, e).to_string())
}

/// `sparsedist gen OUT.mtx …`
pub fn generate(p: &Parsed) -> Result<String, CmdError> {
    let out = p.positional(0, "output path").map_err(|e| e.to_string())?;
    let rows = p.usize_or("rows", 200).map_err(|e| e.to_string())?;
    let cols = p.usize_or("cols", rows).map_err(|e| e.to_string())?;
    let ratio = p.f64_or("ratio", 0.1).map_err(|e| e.to_string())?;
    let seed = p.usize_or("seed", 0).map_err(|e| e.to_string())? as u64;
    let a = match p.flag_or("pattern", "uniform") {
        "uniform" => SparseRandom::new(rows, cols)
            .sparse_ratio(ratio)
            .seed(seed)
            .generate(),
        "banded" => {
            let bw = p.usize_or("bandwidth", 2).map_err(|e| e.to_string())?;
            if rows != cols {
                return Err("banded pattern needs a square array".into());
            }
            patterns::banded(rows, bw)
        }
        "laplacian" => {
            let k = (rows as f64).sqrt().round() as usize;
            if k * k != rows {
                return Err(format!(
                    "laplacian needs --rows to be a perfect square, got {rows}"
                ));
            }
            patterns::five_point_laplacian(k)
        }
        "clustered" => patterns::block_clustered(rows.max(cols), 8, rows / 16 + 1, seed),
        other => return Err(format!("unknown pattern '{other}'")),
    };
    matrixmarket::write_file(out, &Coo::from_dense(&a)).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {out}: {}x{} with {} nonzeros (s = {:.4})\n",
        a.rows(),
        a.cols(),
        a.nnz(),
        a.sparse_ratio()
    ))
}

/// `sparsedist info FILE.mtx`
pub fn info(p: &Parsed) -> Result<String, CmdError> {
    let path = p.positional(0, "input file").map_err(|e| e.to_string())?;
    let a = load(path)?;
    let mut out = String::new();
    let _ = writeln!(out, "{path}:");
    let _ = writeln!(out, "  shape:        {}x{}", a.rows(), a.cols());
    let _ = writeln!(out, "  nonzeros:     {}", a.nnz());
    let _ = writeln!(out, "  sparse ratio: {:.4}", a.sparse_ratio());
    let row_nnz: Vec<usize> = (0..a.rows())
        .map(|r| a.row(r).iter().filter(|&&v| v != 0.0).count())
        .collect();
    let max_row = row_nnz.iter().copied().max().unwrap_or(0);
    let empty_rows = row_nnz.iter().filter(|&&n| n == 0).count();
    let _ = writeln!(out, "  max row nnz:  {max_row}");
    let _ = writeln!(out, "  empty rows:   {empty_rows}");
    let bandwidth = a
        .iter_nonzero()
        .map(|(r, c, _)| r.abs_diff(c))
        .max()
        .unwrap_or(0);
    let _ = writeln!(out, "  bandwidth:    {bandwidth}");
    // s' under a default 4-way row partition, the paper's imbalance metric.
    if a.rows() >= 4 {
        let part = RowBlock::new(a.rows(), a.cols(), 4);
        let prof = part.nnz_profile(&a);
        let _ = writeln!(out, "  s' (row, p=4): {:.4}", prof.s_max);
    }
    Ok(out)
}

/// `sparsedist distribute FILE.mtx …`
pub fn distribute(p: &Parsed) -> Result<String, CmdError> {
    let path = p.positional(0, "input file").map_err(|e| e.to_string())?;
    let a = load(path)?;
    let procs = procs_flag(p, 4)?;
    let scheme = parse_scheme(p.flag_or("scheme", "ed"))?;
    let kind = parse_kind(p.flag_or("kind", "crs"))?;
    let model = parse_model(p.flag_or("model", "sp2"))?;
    let wire = parse_wire(p.flag_or("wire", "v1"))?;
    let codec = parse_codec(p.flag_or("codec", "packed"))?;
    let config = SchemeConfig {
        wire,
        codec,
        parallel: p.flag_or("parallel", "no") == "yes",
        overlap: p.flag_or("overlap", "no") == "yes",
        chunk_elems: p.usize_or("chunk-elems", 0).map_err(|e| e.to_string())?,
    };
    let part = build_partition(p, a.rows(), a.cols(), procs)?;
    let mut machine = build_machine(p, procs, model)?;
    let sink = p
        .flags
        .contains_key("trace")
        .then(MemorySink::new)
        .map(Arc::new);
    if let Some(s) = &sink {
        machine = machine.with_trace_sink(s.clone());
    }
    let run = run_scheme_with(scheme, &machine, &a, part.as_ref(), kind, config)
        .map_err(|e| e.to_string())?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} over {} processors ({} partition, {} compression):",
        scheme.label(),
        procs,
        part.name(),
        kind.label()
    );
    let _ = writeln!(out, "  T_Distribution: {}", run.t_distribution());
    let _ = writeln!(out, "  T_Compression:  {}", run.t_compression());
    let _ = writeln!(out, "  total:          {}", run.t_total());
    let src = &run.ledgers[run.source];
    let _ = writeln!(out, "  source phases:  {src}");
    let (msgs, elems, bytes) = run.ledgers.iter().fold((0u64, 0u64, 0u64), |acc, l| {
        let w = l.wire();
        (acc.0 + w.messages, acc.1 + w.elements, acc.2 + w.bytes)
    });
    let wire_label = match wire {
        WireFormat::V3 => format!("{wire}/{codec}"),
        _ => wire.to_string(),
    };
    let _ = writeln!(
        out,
        "  wire ({wire_label}):      {msgs} messages, {elems} elements, {bytes} bytes ({:.2} B/elem)",
        if elems == 0 {
            0.0
        } else {
            bytes as f64 / elems as f64
        }
    );
    if p.flag_or("streams", "no") == "yes" {
        let policy = WirePolicy::new(wire, codec, machine.model());
        let (grows, gcols) = (a.rows(), a.cols());
        let mut tally = StreamBytes::default();
        for pid in 0..procs {
            // Rebuild the exact per-part streams the compressed schemes
            // put on the wire (travelling indices in the global
            // co-dimension) and measure them columnar under the policy.
            let mut ops = sparsedist_core::opcount::OpCounter::new();
            let sb = match kind {
                CompressKind::Crs => {
                    let crs = Crs::from_part_global(&a, part.as_ref(), pid, &mut ops);
                    wire::measure_streams(gcols, crs.ro(), crs.co(), crs.vl(), &policy)
                }
                CompressKind::Ccs => {
                    let ccs = Ccs::from_part_global(&a, part.as_ref(), pid, &mut ops);
                    wire::measure_streams(grows, ccs.cp(), ccs.ri(), ccs.vl(), &policy)
                }
            };
            tally.add(sb);
        }
        let ratio = |raw: usize, enc: usize| {
            if raw == 0 {
                1.0
            } else {
                enc as f64 / raw as f64
            }
        };
        let _ = writeln!(out, "  streams ({} triples, {wire_label}):", kind.label());
        let _ = writeln!(
            out,
            "    indices: {} raw -> {} encoded bytes (x{:.2})",
            tally.index_raw,
            tally.index_encoded,
            ratio(tally.index_raw, tally.index_encoded)
        );
        let _ = writeln!(
            out,
            "    values:  {} raw -> {} encoded bytes (x{:.2})",
            tally.value_raw,
            tally.value_encoded,
            ratio(tally.value_raw, tally.value_encoded)
        );
        let (raw, enc) = (
            tally.index_raw + tally.value_raw,
            tally.index_encoded + tally.value_encoded,
        );
        let _ = writeln!(
            out,
            "    total:   {raw} raw -> {enc} encoded bytes, {:.2} B/elem over {} stream elements",
            ratio(raw, enc) * 8.0,
            raw / 8
        );
    }
    if p.flag_or("timeline", "no") == "yes" {
        let _ = writeln!(out, "  per-rank timeline (c=compress e=encode p=pack s=send u=unpack d=decode !=retry .=wait):");
        for line in render_timeline(&run.ledgers, 60).lines() {
            let _ = writeln!(out, "    {line}");
        }
        let faults = render_fault_summary(&run.ledgers);
        if !faults.is_empty() {
            let _ = writeln!(out, "  fault recovery:");
            for line in faults.lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
    }
    for (pid, local) in run.locals.iter().enumerate() {
        let (lr, lc) = local.shape();
        let owner = run.owners[pid];
        if owner == pid {
            let _ = writeln!(out, "  P{pid}: {lr}x{lc} local, {} nonzeros", local.nnz());
        } else {
            let _ = writeln!(
                out,
                "  P{pid}: {lr}x{lc} local, {} nonzeros (re-homed to P{owner})",
                local.nnz()
            );
        }
    }
    if run.reassemble(part.as_ref()) == a {
        let _ = writeln!(
            out,
            "  verified: distributed state reassembles the input exactly"
        );
    } else {
        return Err("internal error: reassembly mismatch".into());
    }
    if let Some(s) = &sink {
        // lint: allow(E002) — the sink is constructed iff --trace was parsed above
        let trace_path = p.flags.get("trace").expect("sink exists only with --trace");
        let traces = s.take();
        write_text(trace_path, &chrome_trace_json(&traces))?;
        let spans: usize = traces.iter().map(|t| t.spans.len()).sum();
        let _ = writeln!(
            out,
            "  trace:          {spans} spans over {} ranks written to {trace_path}",
            traces.len()
        );
    }
    Ok(out)
}

/// `sparsedist trace FILE.mtx …` — run one traced distribution and render
/// a per-rank phase waterfall plus a phase × rank summary table. Optional
/// `--out` exports Chrome-trace JSON (load in Perfetto / chrome://tracing)
/// and `--metrics` exports the per-rank counters and histograms as JSON.
pub fn trace_cmd(p: &Parsed) -> Result<String, CmdError> {
    let path = p.positional(0, "input file").map_err(|e| e.to_string())?;
    let a = load(path)?;
    let procs = procs_flag(p, 4)?;
    let scheme = parse_scheme(p.flag_or("scheme", "ed"))?;
    let kind = parse_kind(p.flag_or("kind", "crs"))?;
    let model = parse_model(p.flag_or("model", "sp2"))?;
    let wire = parse_wire(p.flag_or("wire", "v1"))?;
    let width = p.usize_or("width", 60).map_err(|e| e.to_string())?;
    let config = SchemeConfig {
        wire,
        codec: parse_codec(p.flag_or("codec", "packed"))?,
        parallel: p.flag_or("parallel", "no") == "yes",
        overlap: p.flag_or("overlap", "no") == "yes",
        chunk_elems: p.usize_or("chunk-elems", 0).map_err(|e| e.to_string())?,
    };
    let part = build_partition(p, a.rows(), a.cols(), procs)?;
    let sink = Arc::new(MemorySink::new());
    let machine = build_machine(p, procs, model)?.with_trace_sink(sink.clone());
    run_scheme_with(scheme, &machine, &a, part.as_ref(), kind, config)
        .map_err(|e| e.to_string())?;
    let traces: Vec<RankTrace> = sink.take();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} over {procs} processors ({} partition, {} compression, {wire} wire):",
        scheme.label(),
        part.name(),
        kind.label()
    );
    let _ = writeln!(
        out,
        "  waterfall (c=compress e=encode p=pack s=send u=unpack d=decode k=pack !=retry .=wait):"
    );
    for line in render_waterfall(&traces, width).lines() {
        let _ = writeln!(out, "    {line}");
    }
    let _ = writeln!(out, "  phase summary:");
    for line in render_phase_table(&traces).lines() {
        let _ = writeln!(out, "    {line}");
    }
    if let Some(trace_path) = p.flags.get("out") {
        write_text(trace_path, &chrome_trace_json(&traces))?;
        let _ = writeln!(out, "  trace written to {trace_path}");
    }
    if let Some(metrics_path) = p.flags.get("metrics") {
        write_text(metrics_path, &metrics_json(&traces))?;
        let _ = writeln!(out, "  metrics written to {metrics_path}");
    }
    Ok(out)
}

/// `sparsedist chaos …` — sweep seeded fault plans over the schemes and
/// verify the golden-reconstruction-or-typed-error contract.
pub fn chaos_cmd(p: &Parsed) -> Result<String, CmdError> {
    let seeds = p.usize_or("seeds", 100).map_err(|e| e.to_string())?;
    let procs = procs_flag(p, 8)?;
    let rows = p.usize_or("rows", 48).map_err(|e| e.to_string())?;
    let ratio = p.f64_or("ratio", 0.1).map_err(|e| e.to_string())?;
    let retries = p.usize_or("retries", 10).map_err(|e| e.to_string())?;
    let schemes: Vec<SchemeKind> = match p.flag_or("scheme", "all") {
        "all" => SchemeKind::ALL.to_vec(),
        s => vec![parse_scheme(s)?],
    };
    let config = SchemeConfig {
        wire: parse_wire(p.flag_or("wire", "v1"))?,
        codec: parse_codec(p.flag_or("codec", "packed"))?,
        parallel: p.flag_or("parallel", "no") == "yes",
        overlap: p.flag_or("overlap", "no") == "yes",
        chunk_elems: p.usize_or("chunk-elems", 0).map_err(|e| e.to_string())?,
    };
    if procs < 2 {
        return Err("chaos needs --procs >= 2".into());
    }
    let a = SparseRandom::new(rows, rows)
        .sparse_ratio(ratio)
        .seed(0xC0FFEE)
        .generate();
    let part = RowBlock::new(rows, rows, procs);

    let (mut clean, mut recovered, mut typed) = (0u64, 0u64, 0u64);
    let mut by_kind: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for seed in 0..seeds as u64 {
        let plan = FaultPlan::chaos(seed, procs);
        for &scheme in &schemes {
            let machine = Multicomputer::virtual_machine(procs, MachineModel::ibm_sp2())
                .with_faults(plan.clone())
                .with_retry_policy(RetryPolicy::with_retries(
                    u32::try_from(retries).unwrap_or(u32::MAX),
                ));
            match run_scheme_with(scheme, &machine, &a, &part, CompressKind::Crs, config) {
                Ok(run) => {
                    if run.reassemble(&part) != a {
                        return Err(format!(
                            "seed {seed} {}: run succeeded but reconstruction differs — data loss",
                            scheme.label()
                        ));
                    }
                    let rework: u64 = run.ledgers.iter().map(|l| l.faults().retries).sum();
                    let rehomed = run.owners.iter().enumerate().any(|(pid, &o)| pid != o);
                    if rework > 0 || rehomed {
                        recovered += 1;
                    } else {
                        clean += 1;
                    }
                }
                Err(e) => {
                    let msg = e.to_string();
                    if msg.contains("watchdog") {
                        return Err(format!(
                            "seed {seed} {}: protocol stall — {msg}",
                            scheme.label()
                        ));
                    }
                    typed += 1;
                    let kind = match &e {
                        SparsedistError::Comm(_) => "communication",
                        SparsedistError::SourceDead { .. } => "source dead",
                        SparsedistError::NoSurvivors { .. } => "no survivors",
                        SparsedistError::Compress(_) | SparsedistError::Unpack(_) => {
                            "stream validation"
                        }
                        _ => "other",
                    };
                    *by_kind.entry(kind).or_default() += 1;
                }
            }
        }
    }

    let total = clean + recovered + typed;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos: {seeds} seeded plans x {} scheme(s) over {procs} processors ({rows}x{rows}, s={ratio}):",
        schemes.len()
    );
    let _ = writeln!(out, "  {total} runs, 0 panics, 0 stalls");
    let _ = writeln!(out, "  clean:             {clean}");
    let _ = writeln!(
        out,
        "  recovered:         {recovered} (retries or re-homed parts)"
    );
    let _ = writeln!(out, "  typed errors:      {typed}");
    for (kind, n) in &by_kind {
        let _ = writeln!(out, "    {kind}: {n}");
    }
    let _ = writeln!(
        out,
        "  every surviving run reconstructed the golden array exactly"
    );
    Ok(out)
}

/// `sparsedist simcheck …` — drive one scheme configuration through
/// *every* message-delivery interleaving of a small event-loop machine
/// and verify that ledgers, locals and owners are bit-identical across
/// all schedules and that none deadlocks. The dynamic twin of the lint
/// C rules (DESIGN.md §13).
pub fn simcheck_cmd(p: &Parsed) -> Result<String, CmdError> {
    let procs = p.usize_or("procs", 3).map_err(|e| e.to_string())?;
    if !(2..=4).contains(&procs) {
        return Err(format!(
            "simcheck enumerates every delivery interleaving — the tree is \
             exponential in machine size; --procs must be 2..=4, got {procs}"
        ));
    }
    let rows = p.usize_or("rows", 6).map_err(|e| e.to_string())?;
    let ratio = p.f64_or("ratio", 0.2).map_err(|e| e.to_string())?;
    let seeds = p.usize_or("seeds", 2).map_err(|e| e.to_string())?;
    let max_schedules = p
        .usize_or("max-schedules", 60_000)
        .map_err(|e| e.to_string())?;
    let scheme = parse_scheme(p.flag_or("scheme", "ed"))?;
    let which = p.flag_or("config", "all");
    if !matches!(which, "pipeline" | "routed" | "chaos" | "all") {
        return Err(format!(
            "unknown config '{which}' (pipeline|routed|chaos|all)"
        ));
    }
    let a = SparseRandom::new(rows, rows)
        .sparse_ratio(ratio)
        .seed(0xC0FFEE)
        .generate();
    let part = RowBlock::new(rows, rows, procs);

    // One run under the current thread-local schedule, digested into the
    // string that must be schedule-invariant.
    let digest = |plan: Option<&FaultPlan>, config: SchemeConfig| {
        let mut machine = Multicomputer::virtual_machine(procs, MachineModel::ibm_sp2());
        if let Some(plan) = plan {
            machine = machine
                .with_faults(plan.clone())
                .with_retry_policy(RetryPolicy::with_retries(10));
        }
        match run_scheme_with(scheme, &machine, &a, &part, CompressKind::Crs, config) {
            Ok(run) => format!(
                "ok reassembled={} owners={:?} ledgers={:?} locals={:?}",
                run.reassemble(&part) == a,
                run.owners,
                run.ledgers,
                run.locals
            ),
            Err(e) => format!("err {e}"),
        }
    };

    let mut jobs: Vec<(String, Option<FaultPlan>, SchemeConfig)> = Vec::new();
    let overlap = SchemeConfig {
        overlap: true,
        ..SchemeConfig::default()
    };
    if matches!(which, "pipeline" | "all") {
        let chunked = SchemeConfig {
            chunk_elems: 6,
            ..overlap
        };
        jobs.push(("pipeline".into(), None, chunked));
    }
    if matches!(which, "routed" | "all") {
        // A mid-stream death of the last rank: its part re-homes to a
        // survivor while frames are in flight — the hardest protocol.
        let plan = FaultPlan::new(1).with_death_at(procs - 1, 200.0);
        jobs.push(("routed-death".into(), Some(plan), overlap));
    }
    if matches!(which, "chaos" | "all") {
        for seed in 0..seeds as u64 {
            let plan = FaultPlan::chaos(seed, procs);
            jobs.push((
                format!("chaos seed {seed}"),
                Some(plan),
                SchemeConfig::default(),
            ));
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "simcheck: {} over {procs} processors ({rows}x{rows}, s={ratio}), every delivery schedule:",
        scheme.label()
    );
    let mut total = 0usize;
    for (label, plan, config) in &jobs {
        let report =
            sparsedist_multicomputer::explore(|| digest(plan.as_ref(), *config), max_schedules);
        if report.truncated {
            return Err(format!(
                "simcheck {label}: interleaving tree not exhausted within \
                 --max-schedules {max_schedules} ({} branch points deep); \
                 raise the cap or shrink --rows",
                report.max_branch_points
            ));
        }
        if let Some(d) = &report.divergence {
            return Err(format!(
                "simcheck {label}: outcome depends on delivery order!\n  \
                 schedule 0 (FIFO): {}\n  schedule {} (choices {:?}): {}",
                report.baseline, d.schedule, d.choices, d.outcome
            ));
        }
        if report.baseline.contains("watchdog") {
            return Err(format!(
                "simcheck {label}: every schedule stalls — {}",
                report.baseline
            ));
        }
        total += report.schedules;
        let _ = writeln!(
            out,
            "  {label}: {} schedules ({} branch points) — bit-identical, deadlock-free [{}]",
            report.schedules,
            report.max_branch_points,
            report.baseline.split(" ledgers=").next().unwrap_or("ok")
        );
    }
    let _ = writeln!(
        out,
        "  {total} schedules explored exhaustively; ledgers, locals and owners \
         are schedule-independent"
    );
    Ok(out)
}

/// `sparsedist advise FILE.mtx …`
pub fn advise(p: &Parsed) -> Result<String, CmdError> {
    let path = p.positional(0, "input file").map_err(|e| e.to_string())?;
    let a = load(path)?;
    let procs = procs_flag(p, 4)?;
    let model = parse_model(p.flag_or("model", "sp2"))?;
    if a.rows() != a.cols() {
        return Err("advise uses the paper's square-array cost model".into());
    }
    let part = RowBlock::new(a.rows(), a.cols(), procs);
    let prof = part.nnz_profile(&a);
    let inp = CostInput {
        n: a.rows(),
        p: procs,
        s: a.sparse_ratio(),
        s_max: prof.s_max,
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "cost model at n={}, p={procs}, s={:.4}, s'={:.4}, T_Data/T_Op={:.2}:",
        a.rows(),
        inp.s,
        inp.s_max,
        model.data_op_ratio()
    );
    let mut best: Option<(SchemeKind, f64)> = None;
    for scheme in SchemeKind::ALL {
        let c = predict(
            scheme,
            PartitionMethod::Row,
            CompressKind::Crs,
            &inp,
            &model,
        );
        let total = c.t_total().as_millis();
        let _ = writeln!(
            out,
            "  {:<4} dist {:>10.3}ms  comp {:>10.3}ms  total {:>10.3}ms",
            scheme.label(),
            c.t_distribution.as_millis(),
            c.t_compression.as_millis(),
            total
        );
        if best.is_none_or(|(_, t)| total < t) {
            best = Some((scheme, total));
        }
    }
    // lint: allow(E002) — the loop above evaluates all three schemes, so best is Some
    let (winner, _) = best.expect("three schemes evaluated");
    let _ = writeln!(out, "  → recommended scheme: {}", winner.label());
    Ok(out)
}

/// `sparsedist spmv FILE.mtx …`
pub fn spmv(p: &Parsed) -> Result<String, CmdError> {
    let path = p.positional(0, "input file").map_err(|e| e.to_string())?;
    let a = load(path)?;
    let procs = procs_flag(p, 4)?;
    let scheme = parse_scheme(p.flag_or("scheme", "ed"))?;
    let part = build_partition(p, a.rows(), a.cols(), procs)?;
    let machine = build_machine(p, procs, MachineModel::ibm_sp2())?;
    let run = run_scheme(scheme, &machine, &a, part.as_ref(), CompressKind::Crs)
        .map_err(|e| e.to_string())?;
    let x = vec![1.0; a.cols()];
    let y = distributed_spmv(&machine, &run, part.as_ref(), &x).map_err(|e| e.to_string())?;
    let checksum: f64 = y.iter().sum();
    let compute_max = run
        .ledgers
        .iter()
        .map(|l| l.get(Phase::Compute).as_micros())
        .fold(0.0f64, f64::max);
    Ok(format!(
        "y = A·1 over {} processors: checksum {:.6}, ||y||_inf {:.6}, max compute {:.3}ms\n",
        procs,
        checksum,
        y.iter().fold(0.0f64, |m, v| m.max(v.abs())),
        compute_max / 1000.0
    ))
}

/// `sparsedist checkpoint FILE.mtx DIR …` — distribute and save the
/// distributed state.
pub fn checkpoint_cmd(p: &Parsed) -> Result<String, CmdError> {
    let path = p.positional(0, "input file").map_err(|e| e.to_string())?;
    let dir = p
        .positional(1, "checkpoint directory")
        .map_err(|e| e.to_string())?;
    let a = load(path)?;
    let procs = procs_flag(p, 4)?;
    let scheme = parse_scheme(p.flag_or("scheme", "ed"))?;
    let part = build_partition(p, a.rows(), a.cols(), procs)?;
    let machine = build_machine(p, procs, MachineModel::ibm_sp2())?;
    let dist = DistributedSparseArray::distribute(&machine, &a, part, scheme, CompressKind::Crs)
        .map_err(|e| e.to_string())?;
    dist.checkpoint(dir).map_err(|e| e.to_string())?;
    Ok(format!(
        "checkpointed {}x{} ({} nonzeros) over {procs} processors into {dir}\n",
        a.rows(),
        a.cols(),
        dist.nnz()
    ))
}

/// `sparsedist restore DIR OUT.mtx …` — resume a checkpoint, gather and
/// write the array back out as MatrixMarket.
pub fn restore_cmd(p: &Parsed) -> Result<String, CmdError> {
    let dir = p
        .positional(0, "checkpoint directory")
        .map_err(|e| e.to_string())?;
    let out = p
        .positional(1, "output .mtx path")
        .map_err(|e| e.to_string())?;
    let procs = procs_flag(p, 4)?;
    let rows = p.usize_or("rows", 0).map_err(|e| e.to_string())?;
    let cols = p.usize_or("cols", rows).map_err(|e| e.to_string())?;
    if rows == 0 {
        return Err(
            "restore needs --rows (and --cols for non-square) of the original array".into(),
        );
    }
    let part = build_partition(p, rows, cols, procs)?;
    let machine = Multicomputer::virtual_machine(procs, MachineModel::ibm_sp2());
    let dist = DistributedSparseArray::resume(&machine, part, CompressKind::Crs, dir)
        .map_err(|e| e.to_string())?;
    let dense = dist
        .gather_dense(GatherStrategy::Encoded)
        .map_err(|e| e.to_string())?;
    matrixmarket::write_file(out, &Coo::from_dense(&dense)).map_err(|e| e.to_string())?;
    Ok(format!(
        "restored {rows}x{cols} ({} nonzeros) from {dir} and wrote {out}\n",
        dist.nnz()
    ))
}

/// `sparsedist pipeline FILE.mtx …` — full lifecycle demo: distribute,
/// SpMV, repartition to a mesh, gather, verify.
pub fn pipeline_cmd(p: &Parsed) -> Result<String, CmdError> {
    let path = p.positional(0, "input file").map_err(|e| e.to_string())?;
    let a = load(path)?;
    let procs = procs_flag(p, 4)?;
    let grid = parse_grid(p.flag_or("grid", "2x2"))?;
    if grid.0 * grid.1 != procs {
        return Err(format!(
            "grid {}x{} does not match --procs {procs}",
            grid.0, grid.1
        ));
    }
    let machine = build_machine(p, procs, MachineModel::ibm_sp2())?;
    let mut out = String::new();

    let mut dist = DistributedSparseArray::distribute(
        &machine,
        &a,
        Box::new(RowBlock::new(a.rows(), a.cols(), procs)),
        SchemeKind::Ed,
        CompressKind::Crs,
    )
    .map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "1. ED distribution (row):   busy max {}",
        dist.last_busy_max()
    );
    let y = dist.spmv(&vec![1.0; a.cols()]).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "2. SpMV checksum:           {:.6}",
        y.iter().sum::<f64>()
    );
    dist.repartition(
        Box::new(Mesh2D::new(a.rows(), a.cols(), grid.0, grid.1)),
        RedistStrategy::Direct,
    )
    .map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "3. repartition to mesh:     busy max {}",
        dist.last_busy_max()
    );
    let back = dist
        .gather_dense(GatherStrategy::Encoded)
        .map_err(|e| e.to_string())?;
    if back != a {
        return Err("internal error: gathered array differs from input".into());
    }
    let _ = writeln!(out, "4. encoded gather verified: array round-trips exactly");
    Ok(out)
}

#[cfg(test)]
mod tests {

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("sparsedist_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn gen_info_round_trip() {
        let path = tmp("gen1.mtx");
        let g = crate::run(&argv(&format!("gen {path} --rows 64 --ratio 0.1 --seed 3"))).unwrap();
        assert!(g.contains("64x64"), "{g}");
        assert!(g.contains("410 nonzeros"), "{g}"); // round(0.1·4096)

        let i = crate::run(&argv(&format!("info {path}"))).unwrap();
        assert!(i.contains("shape:        64x64"), "{i}");
        assert!(i.contains("nonzeros:     410"), "{i}");
    }

    #[test]
    fn simcheck_explores_and_certifies_the_default_configs() {
        let out = crate::run(&argv("simcheck --procs 3 --seeds 1")).unwrap();
        assert!(out.contains("pipeline:"), "{out}");
        assert!(out.contains("routed-death:"), "{out}");
        assert!(out.contains("chaos seed 0:"), "{out}");
        assert!(out.contains("bit-identical, deadlock-free"), "{out}");
        assert!(out.contains("schedules explored exhaustively"), "{out}");
    }

    #[test]
    fn simcheck_rejects_oversized_machines_and_bad_configs() {
        let err = crate::run(&argv("simcheck --procs 5")).unwrap_err();
        assert!(err.contains("--procs must be 2..=4"), "{err}");
        let err = crate::run(&argv("simcheck --config nope")).unwrap_err();
        assert!(err.contains("unknown config"), "{err}");
    }

    #[test]
    fn simcheck_reports_truncation_as_an_error() {
        let err = crate::run(&argv(
            "simcheck --procs 3 --config routed --max-schedules 5",
        ))
        .unwrap_err();
        assert!(err.contains("not exhausted"), "{err}");
    }

    #[test]
    fn distribute_reports_and_verifies() {
        let path = tmp("gen2.mtx");
        crate::run(&argv(&format!("gen {path} --rows 40 --ratio 0.2"))).unwrap();
        let d = crate::run(&argv(&format!(
            "distribute {path} --scheme cfs --partition mesh --grid 2x2 --procs 4 --kind ccs"
        )))
        .unwrap();
        assert!(d.contains("CFS over 4 processors"), "{d}");
        assert!(d.contains("verified"), "{d}");
    }

    #[test]
    fn distribute_wire_v2_saves_bytes_at_equal_virtual_time() {
        let path = tmp("gen_wire.mtx");
        crate::run(&argv(&format!(
            "gen {path} --rows 40 --ratio 0.2 --seed 11"
        )))
        .unwrap();
        let v1 = crate::run(&argv(&format!("distribute {path} --scheme ed --procs 4"))).unwrap();
        let v2 = crate::run(&argv(&format!(
            "distribute {path} --scheme ed --procs 4 --wire v2 --parallel yes"
        )))
        .unwrap();
        assert!(v1.contains("wire (v1)"), "{v1}");
        assert!(v2.contains("wire (v2)"), "{v2}");
        assert!(v2.contains("verified"), "{v2}");
        // The cost model charges logical elements, so the virtual times match…
        let line = |s: &str, key: &str| {
            s.lines()
                .find(|l| l.contains(key))
                .map(str::to_owned)
                .unwrap()
        };
        assert_eq!(line(&v1, "T_Distribution"), line(&v2, "T_Distribution"));
        // …while the compact format moves fewer bytes for the same elements.
        let bytes = |s: &str| {
            let l = line(s, "wire (");
            l.split_whitespace()
                .zip(l.split_whitespace().skip(1))
                .find(|(_, unit)| *unit == "bytes")
                .map(|(n, _)| n.parse::<u64>().unwrap())
                .unwrap()
        };
        assert!(bytes(&v2) < bytes(&v1), "v1: {v1}\nv2: {v2}");

        assert!(crate::run(&argv(&format!("distribute {path} --wire v9"))).is_err());
    }

    #[test]
    fn distribute_wire_v3_beats_v2_bytes_at_equal_virtual_time() {
        let path = tmp("gen_wire_v3.mtx");
        crate::run(&argv(&format!(
            "gen {path} --rows 40 --ratio 0.2 --seed 11"
        )))
        .unwrap();
        let line = |s: &str, key: &str| {
            s.lines()
                .find(|l| l.contains(key))
                .map(str::to_owned)
                .unwrap()
        };
        let bytes = |s: &str| {
            let l = line(s, "wire (");
            l.split_whitespace()
                .zip(l.split_whitespace().skip(1))
                .find(|(_, unit)| *unit == "bytes")
                .map(|(n, _)| n.parse::<u64>().unwrap())
                .unwrap()
        };
        for scheme in ["cfs", "ed"] {
            let v2 = crate::run(&argv(&format!(
                "distribute {path} --scheme {scheme} --procs 4 --wire v2"
            )))
            .unwrap();
            let v3 = crate::run(&argv(&format!(
                "distribute {path} --scheme {scheme} --procs 4 --wire v3"
            )))
            .unwrap();
            assert!(v3.contains("wire (v3/packed)"), "{v3}");
            assert!(v3.contains("verified"), "{v3}");
            // The codec moves bytes, never ops: the virtual clock cannot
            // tell the formats apart while the wire shrinks further.
            assert_eq!(
                line(&v2, "T_Distribution"),
                line(&v3, "T_Distribution"),
                "{scheme}"
            );
            assert!(
                bytes(&v3) < bytes(&v2),
                "{scheme}: v3 {} !< v2 {}",
                bytes(&v3),
                bytes(&v2)
            );
        }
    }

    #[test]
    fn distribute_codec_flag_and_streams_report() {
        let path = tmp("gen_streams.mtx");
        crate::run(&argv(&format!("gen {path} --rows 40 --ratio 0.1 --seed 3"))).unwrap();
        let d = crate::run(&argv(&format!(
            "distribute {path} --scheme cfs --procs 4 --wire v3 --codec auto --streams yes"
        )))
        .unwrap();
        assert!(d.contains("wire (v3/auto)"), "{d}");
        assert!(d.contains("streams (crs triples"), "{d}");
        assert!(d.contains("indices:"), "{d}");
        assert!(d.contains("values:"), "{d}");
        assert!(d.contains("B/elem"), "{d}");
        assert!(d.contains("verified"), "{d}");
        // The report works under every format (raw == encoded for v1).
        let v1 = crate::run(&argv(&format!(
            "distribute {path} --scheme ed --procs 4 --streams yes"
        )))
        .unwrap();
        assert!(v1.contains("streams (crs triples"), "{v1}");
        // A bad codec name is a typed CLI error.
        let err = crate::run(&argv(&format!("distribute {path} --codec zstd"))).unwrap_err();
        assert!(err.contains("unknown codec"), "{err}");
    }

    #[test]
    fn distribute_overlap_and_chunking_flags() {
        let path = tmp("gen_pipe.mtx");
        crate::run(&argv(&format!("gen {path} --rows 40 --ratio 0.2 --seed 9"))).unwrap();
        let ms = |s: &str, key: &str| -> f64 {
            s.lines()
                .find(|l| l.contains(key))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|v| v.strip_suffix("ms"))
                .unwrap()
                .parse()
                .unwrap()
        };
        let wire_stat = |s: &str, unit: &str| -> u64 {
            let l = s.lines().find(|l| l.contains("wire (")).unwrap();
            l.split_whitespace()
                .zip(l.split_whitespace().skip(1))
                .find(|(_, u)| u.trim_end_matches(',') == unit)
                .map(|(n, _)| n.parse().unwrap())
                .unwrap()
        };

        let staged =
            crate::run(&argv(&format!("distribute {path} --scheme ed --procs 4"))).unwrap();
        let over = crate::run(&argv(&format!(
            "distribute {path} --scheme ed --procs 4 --overlap yes"
        )))
        .unwrap();
        // Overlap hides wire time behind encode work: same bytes, same
        // verified state, strictly smaller T_Distribution.
        assert!(over.contains("verified"), "{over}");
        assert_eq!(wire_stat(&staged, "bytes"), wire_stat(&over, "bytes"));
        assert!(
            ms(&over, "T_Distribution") < ms(&staged, "T_Distribution"),
            "overlap did not shrink T_Distribution:\n{staged}\n{over}"
        );

        // Chunked streaming splits buffers into framed chunks: more
        // messages on the wire, identical verified state.
        let chunked = crate::run(&argv(&format!(
            "distribute {path} --scheme ed --procs 4 --chunk-elems 16"
        )))
        .unwrap();
        assert!(chunked.contains("verified"), "{chunked}");
        assert!(
            wire_stat(&chunked, "messages") > wire_stat(&staged, "messages"),
            "staged: {staged}\nchunked: {chunked}"
        );

        assert!(crate::run(&argv(&format!("distribute {path} --chunk-elems nope"))).is_err());
    }

    #[test]
    fn oversized_procs_is_a_typed_error() {
        let path = tmp("gen_procs_max.mtx");
        crate::run(&argv(&format!("gen {path} --rows 16 --ratio 0.2"))).unwrap();
        // Above the event loop's ceiling there is no backend left; the CLI
        // must reject up front with the typed message, not spawn anything.
        let err = crate::run(&argv(&format!("distribute {path} --procs 200000"))).unwrap_err();
        assert!(err.contains("--procs 200000"), "{err}");
        assert!(err.contains("131072"), "{err}");
        let err = crate::run(&argv("chaos --seeds 1 --procs 200000")).unwrap_err();
        assert!(err.contains("--procs 200000"), "{err}");
        assert!(err.contains("largest supported machine"), "{err}");
    }

    #[test]
    fn unknown_flags_are_errors() {
        let path = tmp("gen_flags.mtx");
        crate::run(&argv(&format!("gen {path} --rows 16 --ratio 0.2"))).unwrap();
        // A typo must not run silently at the default --procs 4.
        let err = crate::run(&argv(&format!("distribute {path} --proc 8"))).unwrap_err();
        assert!(err.contains("distribute does not take --proc;"), "{err}");
        assert!(err.contains("--procs"), "{err}");
        let err = crate::run(&argv(&format!("info {path} --procs 4"))).unwrap_err();
        assert!(
            err.contains("info does not take --procs (it takes no flags)"),
            "{err}"
        );
    }

    #[test]
    fn removed_engine_flag_is_an_error() {
        let path = tmp("gen_engine.mtx");
        crate::run(&argv(&format!("gen {path} --rows 16 --ratio 0.2"))).unwrap();
        let err = crate::run(&argv(&format!("distribute {path} --engine event"))).unwrap_err();
        assert!(err.contains("does not take --engine"), "{err}");
    }

    #[test]
    fn removed_watchdog_flag_is_an_error() {
        let err = crate::run(&argv("chaos --seeds 1 --watchdog-ms 50")).unwrap_err();
        assert!(err.contains("chaos does not take --watchdog-ms"), "{err}");
    }

    #[test]
    fn zero_procs_is_a_typed_error() {
        let path = tmp("gen_procs0.mtx");
        crate::run(&argv(&format!("gen {path} --rows 16 --ratio 0.2"))).unwrap();
        for cmd in ["distribute", "spmv", "advise", "pipeline"] {
            let err = crate::run(&argv(&format!("{cmd} {path} --procs 0"))).unwrap_err();
            assert!(err.contains("--procs 0"), "{cmd}: {err}");
        }
    }

    #[test]
    fn zero_grid_dimension_is_a_typed_error() {
        let path = tmp("gen_grid0.mtx");
        crate::run(&argv(&format!("gen {path} --rows 16 --ratio 0.2"))).unwrap();
        let err = crate::run(&argv(&format!("pipeline {path} --grid 0x4"))).unwrap_err();
        assert!(err.contains("at least one row and one column"), "{err}");
        let err = crate::run(&argv(&format!(
            "distribute {path} --partition mesh --grid 4x0 --procs 4"
        )))
        .unwrap_err();
        assert!(err.contains("at least one row and one column"), "{err}");
    }

    #[test]
    fn spmv_and_pipeline_run_past_a_thousand_ranks() {
        let path = tmp("gen_big_p.mtx");
        crate::run(&argv(&format!("gen {path} --rows 64 --ratio 0.1 --seed 2"))).unwrap();
        let s = crate::run(&argv(&format!("spmv {path} --procs 2048"))).unwrap();
        assert!(s.contains("over 2048 processors"), "{s}");
        let p = crate::run(&argv(&format!("pipeline {path} --procs 2048 --grid 32x64"))).unwrap();
        assert!(p.contains("round-trips exactly"), "{p}");
    }

    #[test]
    fn advise_recommends_a_scheme() {
        let path = tmp("gen3.mtx");
        crate::run(&argv(&format!("gen {path} --rows 80 --ratio 0.05"))).unwrap();
        let a = crate::run(&argv(&format!("advise {path} --procs 4 --model network"))).unwrap();
        assert!(a.contains("recommended scheme: ED"), "{a}");
        let b = crate::run(&argv(&format!("advise {path} --procs 4 --model compute"))).unwrap();
        assert!(b.contains("recommended scheme: SFC"), "{b}");
    }

    #[test]
    fn spmv_checksum_matches_dense() {
        let path = tmp("gen4.mtx");
        crate::run(&argv(&format!("gen {path} --rows 36 --pattern laplacian"))).unwrap();
        let s = crate::run(&argv(&format!("spmv {path} --procs 4"))).unwrap();
        // Laplacian row sums: interior 0, boundary positive; checksum is
        // the total of all row sums = sum of boundary contributions.
        assert!(s.contains("checksum"), "{s}");
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(crate::run(&argv("nonsense")).is_err());
        assert!(crate::run(&argv("info /no/such/file.mtx")).is_err());
        let path = tmp("gen5.mtx");
        crate::run(&argv(&format!("gen {path} --rows 16"))).unwrap();
        assert!(crate::run(&argv(&format!("distribute {path} --scheme bogus"))).is_err());
        assert!(crate::run(&argv(&format!(
            "distribute {path} --partition mesh --grid 3x3 --procs 4"
        )))
        .is_err());
        assert!(crate::run(&argv(&format!("gen {path} --rows 10 --pattern laplacian"))).is_err());
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let mtx = tmp("ckpt_src.mtx");
        let dir = tmp("ckpt_dir");
        let out = tmp("ckpt_out.mtx");
        let _ = std::fs::remove_dir_all(&dir);
        crate::run(&argv(&format!("gen {mtx} --rows 48 --ratio 0.1 --seed 5"))).unwrap();
        let c = crate::run(&argv(&format!("checkpoint {mtx} {dir} --procs 4"))).unwrap();
        assert!(c.contains("checkpointed 48x48"), "{c}");
        let r = crate::run(&argv(&format!("restore {dir} {out} --procs 4 --rows 48"))).unwrap();
        assert!(r.contains("restored 48x48"), "{r}");
        // The round-tripped file holds the same array.
        let orig = sparsedist_gen::matrixmarket::read_file(&mtx)
            .unwrap()
            .to_dense();
        let back = sparsedist_gen::matrixmarket::read_file(&out)
            .unwrap()
            .to_dense();
        assert_eq!(orig, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipeline_round_trips() {
        let mtx = tmp("pipe.mtx");
        crate::run(&argv(&format!("gen {mtx} --rows 32 --ratio 0.15"))).unwrap();
        let p = crate::run(&argv(&format!("pipeline {mtx} --procs 4 --grid 2x2"))).unwrap();
        assert!(p.contains("round-trips exactly"), "{p}");
    }

    #[test]
    fn distribute_recovers_from_injected_drops() {
        let path = tmp("gen_faults.mtx");
        crate::run(&argv(&format!("gen {path} --rows 32 --ratio 0.2 --seed 9"))).unwrap();
        let d = crate::run(&argv(&format!(
            "distribute {path} --procs 4 --faults seed=7,drop=0.2 --retries 6 --timeline yes"
        )))
        .unwrap();
        // Retries recovered every frame: the state still verifies, and the
        // timeline's fault section reports the recovery cost.
        assert!(d.contains("verified"), "{d}");
        assert!(d.contains("fault recovery"), "{d}");
    }

    #[test]
    fn distribute_survives_a_dead_rank() {
        let path = tmp("gen_dead.mtx");
        crate::run(&argv(&format!("gen {path} --rows 32 --ratio 0.2 --seed 9"))).unwrap();
        let d = crate::run(&argv(&format!(
            "distribute {path} --procs 4 --faults dead=2"
        )))
        .unwrap();
        assert!(d.contains("re-homed"), "{d}");
        assert!(d.contains("verified"), "{d}");
    }

    #[test]
    fn bad_fault_spec_is_reported() {
        let path = tmp("gen_badspec.mtx");
        crate::run(&argv(&format!("gen {path} --rows 16"))).unwrap();
        let err = crate::run(&argv(&format!(
            "distribute {path} --procs 4 --faults drop=1.5"
        )))
        .unwrap_err();
        assert!(err.contains("probability"), "{err}");
    }

    #[test]
    fn chaos_small_sweep_reports_every_outcome() {
        let out = crate::run(&argv(
            "chaos --seeds 25 --procs 4 --rows 24 --ratio 0.15 --scheme ed",
        ))
        .unwrap();
        assert!(out.contains("25 seeded plans"), "{out}");
        assert!(out.contains("0 panics, 0 stalls"), "{out}");
        assert!(out.contains("clean:"), "{out}");
        assert!(out.contains("golden array exactly"), "{out}");
    }

    #[test]
    fn chaos_rejects_single_rank() {
        let err = crate::run(&argv("chaos --seeds 1 --procs 1")).unwrap_err();
        assert!(err.contains("--procs"), "{err}");
    }

    #[test]
    fn restore_requires_dimensions() {
        let err = crate::run(&argv("restore /tmp/nowhere out.mtx --procs 4")).unwrap_err();
        assert!(err.contains("--rows"), "{err}");
    }

    #[test]
    fn help_prints_usage() {
        let h = crate::run(&argv("help")).unwrap();
        assert!(h.contains("USAGE"));
    }

    #[test]
    fn distribute_trace_flag_writes_chrome_json() {
        let mtx = tmp("gen_trace.mtx");
        let trace = tmp("gen_trace.json");
        crate::run(&argv(&format!("gen {mtx} --rows 32 --ratio 0.2 --seed 4"))).unwrap();
        let d = crate::run(&argv(&format!(
            "distribute {mtx} --scheme ed --procs 4 --trace {trace}"
        )))
        .unwrap();
        assert!(d.contains("verified"), "{d}");
        assert!(d.contains("spans over 4 ranks"), "{d}");
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"cat\":\"ED\""), "{json}");
    }

    #[test]
    fn trace_subcommand_renders_waterfall_and_table() {
        let mtx = tmp("trace_cmd.mtx");
        let trace = tmp("trace_cmd.json");
        let metrics = tmp("trace_cmd_metrics.json");
        crate::run(&argv(&format!("gen {mtx} --rows 32 --ratio 0.2 --seed 4"))).unwrap();
        let t = crate::run(&argv(&format!(
            "trace {mtx} --scheme cfs --procs 4 --out {trace} --metrics {metrics}"
        )))
        .unwrap();
        assert!(t.contains("waterfall"), "{t}");
        assert!(t.contains("phase summary"), "{t}");
        assert!(t.contains("P0") && t.contains("P3"), "{t}");
        assert!(std::fs::read_to_string(&trace)
            .unwrap()
            .contains("\"cat\":\"CFS\""));
        assert!(std::fs::read_to_string(&metrics)
            .unwrap()
            .contains("\"ops.total\""));
    }

    #[test]
    fn trace_io_failure_is_a_typed_error_not_a_panic() {
        let mtx = tmp("trace_io.mtx");
        crate::run(&argv(&format!("gen {mtx} --rows 16"))).unwrap();
        let err = crate::run(&argv(&format!(
            "trace {mtx} --procs 4 --out /no/such/dir/trace.json"
        )))
        .unwrap_err();
        assert!(err.contains("/no/such/dir/trace.json"), "{err}");
    }
}
