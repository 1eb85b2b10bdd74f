//! The `sparsedist` subcommands.

use crate::args::Parsed;
use sparsedist::array::DistributedSparseArray;
use sparsedist_core::compress::{compress_part, CompressKind, Coo};
use sparsedist_core::cost::{predict, CostInput, PartitionMethod};
use sparsedist_core::dense::Dense2D;
use sparsedist_core::error::SparsedistError;
use sparsedist_core::gather::GatherStrategy;
use sparsedist_core::partition::{ColBlock, ColCyclic, Mesh2D, Partition, RowBlock, RowCyclic};
use sparsedist_core::redistribute::RedistStrategy;
use sparsedist_core::schemes::{run_scheme, run_scheme_with, SchemeConfig, SchemeKind};
use sparsedist_core::wire::{self, CodecChoice, StreamBytes, WireFormat};
use sparsedist_gen::{matrixmarket, patterns, SparseRandom};
use sparsedist_multicomputer::{
    chrome_trace_json, metrics_json, render_fault_summary, render_phase_table, render_waterfall,
    EngineKind, FaultPlan, MachineModel, MemorySink, Multicomputer, Phase, RetryPolicy, WireStats,
};
use sparsedist_ops::spmv::distributed_spmv_ledgers;
use std::fmt::Write as _;
use std::sync::{Arc, LazyLock};

/// The help text, rendered once from the command table (`COMMANDS` in
/// the crate root): every subcommand's arguments, flags and notes.
pub static USAGE: LazyLock<String> = LazyLock::new(crate::render_usage);

/// Command error: a plain message. Every error a command meets displays
/// itself, so `?` turns any of them into one.
#[derive(Debug)]
pub struct CmdError(pub String);

impl<E: std::fmt::Display> From<E> for CmdError {
    fn from(e: E) -> Self {
        CmdError(e.to_string())
    }
}

fn parse_scheme(s: &str) -> Result<SchemeKind, CmdError> {
    match s {
        "sfc" => Ok(SchemeKind::Sfc),
        "cfs" => Ok(SchemeKind::Cfs),
        "ed" => Ok(SchemeKind::Ed),
        other => Err(format!("unknown scheme '{other}' (sfc|cfs|ed)").into()),
    }
}

fn parse_kind(s: &str) -> Result<CompressKind, CmdError> {
    match s {
        "crs" => Ok(CompressKind::Crs),
        "ccs" => Ok(CompressKind::Ccs),
        other => Err(format!("unknown compression '{other}' (crs|ccs)").into()),
    }
}

fn parse_wire(s: &str) -> Result<WireFormat, CmdError> {
    match s {
        "v1" => Ok(WireFormat::V1),
        "v3" => Ok(WireFormat::V3),
        other => Err(format!("unknown wire format '{other}' (v1|v3)").into()),
    }
}

fn parse_codec(s: &str) -> Result<CodecChoice, CmdError> {
    match s {
        "raw" => Ok(CodecChoice::Raw),
        "delta" => Ok(CodecChoice::Delta),
        "packed" => Ok(CodecChoice::Packed),
        other => Err(format!("unknown codec '{other}' (raw|delta|packed)").into()),
    }
}

/// The scheme configuration from `--wire`, `--codec`, `--overlap` and
/// `--chunk-elems`.
fn scheme_config(p: &Parsed) -> Result<SchemeConfig, CmdError> {
    Ok(SchemeConfig {
        wire: parse_wire(p.flag_or("wire", "v1"))?,
        codec: parse_codec(p.flag_or("codec", "packed"))?,
        overlap: p.flag_or("overlap", "no") == "yes",
        chunk_elems: p.usize_or("chunk-elems", 0)?,
    })
}

fn parse_model(s: &str) -> Result<MachineModel, CmdError> {
    match s {
        "sp2" => Ok(MachineModel::ibm_sp2()),
        "compute" => Ok(MachineModel::compute_bound()),
        "network" => Ok(MachineModel::network_bound()),
        other => Err(format!("unknown model '{other}' (sp2|compute|network)").into()),
    }
}

fn parse_grid(s: &str) -> Result<(usize, usize), CmdError> {
    let (a, b) = s
        .split_once('x')
        .ok_or_else(|| format!("grid '{s}' must look like 2x2"))?;
    let pr: usize = a.parse().map_err(|_| format!("bad grid rows '{a}'"))?;
    let pc: usize = b.parse().map_err(|_| format!("bad grid cols '{b}'"))?;
    if pr == 0 || pc == 0 {
        return Err(
            format!("grid '{s}' needs at least one row and one column of processors").into(),
        );
    }
    Ok((pr, pc))
}

fn build_partition(
    p: &Parsed,
    rows: usize,
    cols: usize,
    procs: usize,
) -> Result<Box<dyn Partition>, CmdError> {
    let part: Box<dyn Partition> = match p.flag_or("partition", "row") {
        "row" => Box::new(RowBlock::try_new(rows, cols, procs)?),
        "column" => Box::new(ColBlock::try_new(rows, cols, procs)?),
        "rowcyclic" => Box::new(RowCyclic::try_new(rows, cols, procs)?),
        "colcyclic" => Box::new(ColCyclic::try_new(rows, cols, procs)?),
        "mesh" => {
            let (pr, pc) = parse_grid(p.flag_or("grid", "2x2"))?;
            if pr * pc != procs {
                return Err(format!("grid {pr}x{pc} does not match --procs {procs}").into());
            }
            Box::new(Mesh2D::try_new(rows, cols, pr, pc)?)
        }
        other => {
            return Err(format!(
                "unknown partition '{other}' (row|column|mesh|rowcyclic|colcyclic)"
            )
            .into())
        }
    };
    Ok(part)
}

/// The `--procs` flag (or `default`). A count the engine cannot run —
/// zero, or beyond the event loop's ceiling — is a typed error instead of
/// a constructor panic.
fn procs_flag(p: &Parsed, default: usize) -> Result<usize, CmdError> {
    let procs = p.usize_or("procs", default)?;
    if procs == 0 {
        return Err("--procs 0: a machine needs at least one processor".into());
    }
    let max = EngineKind::EventLoop.max_procs();
    if procs > max {
        return Err(SparsedistError::MachineTooLarge { procs, max }.into());
    }
    Ok(procs)
}

/// Build the simulated machine, honouring the shared `--faults SPEC` and
/// `--retries N` flags.
fn build_machine(p: &Parsed, procs: usize, model: MachineModel) -> Result<Multicomputer, CmdError> {
    let mut machine = Multicomputer::virtual_machine(procs, model);
    if let Some(spec) = p.flags.get("faults") {
        let plan = FaultPlan::parse(spec)?;
        machine = machine.with_faults(plan);
    }
    if p.flags.contains_key("retries") {
        let retries = p.usize_or("retries", 6)?;
        let retries = u32::try_from(retries).unwrap_or(u32::MAX);
        machine = machine.with_retry_policy(RetryPolicy::with_retries(retries));
    }
    Ok(machine)
}

/// Read and validate a MatrixMarket file.
fn read_coo(path: &str) -> Result<Coo, CmdError> {
    let coo = matrixmarket::read_file(path).map_err(|e| format!("{path}: {e}"))?;
    coo.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(coo)
}

fn load(path: &str) -> Result<Dense2D, CmdError> {
    Ok(read_coo(path)?.to_dense())
}

/// Write `text` to `path`, funnelling I/O failures through
/// [`SparsedistError::Io`] instead of panicking.
fn write_text(path: &str, text: &str) -> Result<(), CmdError> {
    std::fs::write(path, text).map_err(|e| SparsedistError::io(path, e).into())
}

/// `sparsedist gen OUT.mtx …`
pub fn generate(p: &Parsed) -> Result<String, CmdError> {
    let out = p.positional(0, "output path")?;
    let rows = p.usize_or("rows", 200)?;
    let cols = p.usize_or("cols", rows)?;
    let ratio = p.f64_or("ratio", 0.1)?;
    let seed = p.usize_or("seed", 0)? as u64;
    let pattern = p.flag_or("pattern", "uniform");
    let uniform = SparseRandom::try_new(rows, cols).and_then(|g| g.try_sparse_ratio(ratio))?;
    if rows != cols && matches!(pattern, "banded" | "laplacian" | "clustered") {
        return Err(format!("{pattern} pattern needs a square array").into());
    }
    let a = match pattern {
        "uniform" => uniform.seed(seed).generate(),
        "banded" => {
            let bw = p.usize_or("bandwidth", 2)?;
            patterns::banded(rows, bw)
        }
        "laplacian" => {
            let k = (rows as f64).sqrt().round() as usize;
            if k * k != rows {
                return Err(
                    format!("laplacian needs --rows to be a perfect square, got {rows}").into(),
                );
            }
            patterns::five_point_laplacian(k)
        }
        "clustered" if rows < 8 => {
            return Err(format!(
                "clustered pattern needs --rows of at least 8 (one block), got {rows}"
            )
            .into())
        }
        "clustered" => patterns::block_clustered(rows, 8, rows / 16 + 1, seed),
        other => return Err(format!("unknown pattern '{other}'").into()),
    };
    matrixmarket::write_file(out, &Coo::from_dense(&a))?;
    Ok(format!(
        "wrote {out}: {}x{} with {} nonzeros (s = {:.4})\n",
        a.rows(),
        a.cols(),
        a.nnz(),
        a.sparse_ratio()
    ))
}

/// `sparsedist info FILE.mtx` — statistics of the file's nonzeros, read
/// straight from its entries: an explicit zero entry is not a nonzero.
pub fn info(p: &Parsed) -> Result<String, CmdError> {
    let path = p.positional(0, "input file")?;
    let coo = read_coo(path)?;
    let (rows, cols) = (coo.rows(), coo.cols());
    let nonzeros = || {
        coo.entries()
            .iter()
            .filter(|&&(_, _, v)| v != 0.0)
            .map(|&(r, c, _)| (r, c))
    };
    let nnz = nonzeros().count();
    let cells = rows * cols;
    let ratio = if cells == 0 {
        0.0
    } else {
        nnz as f64 / cells as f64
    };
    let mut row_nnz = vec![0usize; rows];
    for (r, _) in nonzeros() {
        row_nnz[r] += 1;
    }
    let bandwidth = nonzeros().map(|(r, c)| r.abs_diff(c)).max();
    let mut out = String::new();
    let _ = writeln!(out, "{path}:");
    let _ = writeln!(out, "  shape:        {rows}x{cols}");
    let _ = writeln!(out, "  nonzeros:     {nnz}");
    let _ = writeln!(out, "  sparse ratio: {ratio:.4}");
    let _ = writeln!(
        out,
        "  max row nnz:  {}",
        row_nnz.iter().max().copied().unwrap_or(0)
    );
    let _ = writeln!(
        out,
        "  empty rows:   {}",
        row_nnz.iter().filter(|&&n| n == 0).count()
    );
    let _ = writeln!(out, "  bandwidth:    {}", bandwidth.unwrap_or(0));
    // s' under a default 4-way row partition, the paper's imbalance metric:
    // the densest part's nonzeros over its cells.
    if let Some(part) = RowBlock::try_new(rows, cols, 4).ok().filter(|_| rows >= 4) {
        let mut per_part = [0usize; 4];
        for (r, c) in nonzeros() {
            per_part[part.owner_of(r, c)] += 1;
        }
        let s_max = per_part
            .iter()
            .enumerate()
            .map(|(k, &nnz)| {
                let (lr, lc) = part.local_shape(k);
                if lr * lc > 0 {
                    nnz as f64 / (lr * lc) as f64
                } else {
                    0.0
                }
            })
            .fold(0.0f64, f64::max);
        let _ = writeln!(out, "  s' (row, p=4): {s_max:.4}");
    }
    Ok(out)
}

/// `sparsedist distribute FILE.mtx …`
pub fn distribute(p: &Parsed) -> Result<String, CmdError> {
    let path = p.positional(0, "input file")?;
    let a = load(path)?;
    let procs = procs_flag(p, 4)?;
    let scheme = parse_scheme(p.flag_or("scheme", "ed"))?;
    let kind = parse_kind(p.flag_or("kind", "crs"))?;
    let model = parse_model(p.flag_or("model", "sp2"))?;
    let config = scheme_config(p)?;
    let (wire, codec) = (config.wire, config.codec);
    let part = build_partition(p, a.rows(), a.cols(), procs)?;
    let mut machine = build_machine(p, procs, model)?;
    let timeline = p.flag_or("timeline", "no") == "yes";
    let (trace_path, metrics_path) = (p.flags.get("trace"), p.flags.get("metrics"));
    let sink = (timeline || trace_path.is_some() || metrics_path.is_some())
        .then(|| Arc::new(MemorySink::new()));
    if let Some(s) = &sink {
        machine = machine.with_trace_sink(s.clone());
    }
    let run = run_scheme_with(scheme, &machine, &a, part.as_ref(), kind, config)?;
    let traces = sink.map(|s| s.take()).unwrap_or_default();

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
    let mut sent = WireStats::default();
    run.ledgers.iter().for_each(|l| sent += l.wire());
    let wire_label = match wire {
        WireFormat::V3 => format!("{wire}/{codec}"),
        _ => wire.to_string(),
    };
    let _ = writeln!(
        out,
        "  wire ({wire_label}):      {} messages, {} elements, {} bytes ({:.2} B/elem)",
        sent.messages,
        sent.elements,
        sent.bytes,
        sent.bytes_per_element().unwrap_or(0.0)
    );
    if p.flag_or("streams", "no") == "yes" {
        let policy = config.policy();
        let mut tally = StreamBytes::default();
        for pid in 0..procs {
            // Rebuild the exact per-part streams the compressed schemes
            // put on the wire (travelling indices in the global
            // co-dimension) and measure them columnar under the policy.
            let mut ops = sparsedist_core::opcount::OpCounter::new();
            let l = compress_part(kind, &a, part.as_ref(), pid, &mut ops);
            tally.add(wire::measure_streams(
                l.pointer(),
                l.indices(),
                l.values(),
                &policy,
            ));
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
    if timeline {
        let _ = writeln!(out, "  waterfall ({}):", timeline_legend());
        push_indented(&mut out, &render_waterfall(&traces, 60));
        let _ = writeln!(out, "  phase summary:");
        push_indented(&mut out, &render_phase_table(&traces));
        let faults = render_fault_summary(&run.ledgers);
        if !faults.is_empty() {
            let _ = writeln!(out, "  fault recovery:");
            push_indented(&mut out, &faults);
        }
    }
    for (pid, (local, &owner)) in run.locals.iter().zip(&run.owners).enumerate() {
        let (lr, lc) = local.shape();
        let rehomed = if owner == pid {
            String::new()
        } else {
            format!(" (re-homed to P{owner})")
        };
        let _ = writeln!(
            out,
            "  P{pid}: {lr}x{lc} local, {} nonzeros{rehomed}",
            local.nnz()
        );
    }
    if run.reassemble(part.as_ref()) == a {
        let _ = writeln!(
            out,
            "  verified: distributed state reassembles the input exactly"
        );
    } else {
        return Err("internal error: reassembly mismatch".into());
    }
    if let Some(path) = trace_path {
        write_text(path, &chrome_trace_json(&traces))?;
        let spans: usize = traces.iter().map(|t| t.spans.len()).sum();
        let _ = writeln!(
            out,
            "  trace:          {spans} spans over {} ranks written to {path}",
            traces.len()
        );
    }
    if let Some(path) = metrics_path {
        write_text(path, &metrics_json(&traces))?;
        let _ = writeln!(
            out,
            "  metrics:        {} ranks written to {path}",
            traces.len()
        );
    }
    Ok(out)
}

/// The key to the waterfall's bars: every phase's character and label.
fn timeline_legend() -> String {
    let keys: Vec<String> = Phase::ALL
        .iter()
        .map(|p| format!("{}={}", p.timeline_char(), p.label()))
        .collect();
    keys.join(" ")
}

/// Append each line of `text` to `out`, indented under a section heading.
fn push_indented(out: &mut String, text: &str) {
    for line in text.lines() {
        let _ = writeln!(out, "    {line}");
    }
}

/// The seeded `rows × rows` array that `chaos` and `simcheck` run on, and
/// its row partition over `procs` ranks.
fn sweep_array(rows: usize, ratio: f64, procs: usize) -> Result<(Dense2D, RowBlock), CmdError> {
    let a = SparseRandom::try_new(rows, rows)
        .and_then(|g| g.try_sparse_ratio(ratio))?
        .seed(0xC0FFEE)
        .generate();
    let part = RowBlock::try_new(rows, rows, procs)?;
    Ok((a, part))
}

/// `sparsedist chaos …` — sweep seeded fault plans over the schemes and
/// verify the golden-reconstruction-or-typed-error contract.
pub fn chaos_cmd(p: &Parsed) -> Result<String, CmdError> {
    let seeds = p.usize_or("seeds", 100)?;
    let procs = procs_flag(p, 8)?;
    let rows = p.usize_or("rows", 48)?;
    let ratio = p.f64_or("ratio", 0.1)?;
    let retries = p.usize_or("retries", 10)?;
    let schemes: Vec<SchemeKind> = match p.flag_or("scheme", "all") {
        "all" => SchemeKind::ALL.to_vec(),
        s => vec![parse_scheme(s)?],
    };
    let config = scheme_config(p)?;
    if procs < 2 {
        return Err("chaos needs --procs >= 2".into());
    }
    let (a, part) = sweep_array(rows, ratio, procs)?;

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
                        )
                        .into());
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
                        )
                        .into());
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
    let procs = p.usize_or("procs", 3)?;
    if !(2..=4).contains(&procs) {
        return Err(format!(
            "simcheck enumerates every delivery interleaving — the tree is \
             exponential in machine size; --procs must be 2..=4, got {procs}"
        )
        .into());
    }
    let rows = p.usize_or("rows", 6)?;
    let ratio = p.f64_or("ratio", 0.2)?;
    let seeds = p.usize_or("seeds", 2)?;
    let max_schedules = p.usize_or("max-schedules", 60_000)?;
    let scheme = parse_scheme(p.flag_or("scheme", "ed"))?;
    let which = p.flag_or("config", "all");
    if !matches!(which, "pipeline" | "routed" | "chaos" | "all") {
        return Err(format!("unknown config '{which}' (pipeline|routed|chaos|all)").into());
    }
    let (a, part) = sweep_array(rows, ratio, procs)?;

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
            )
            .into());
        }
        if let Some(d) = &report.divergence {
            return Err(format!(
                "simcheck {label}: outcome depends on delivery order!\n  \
                 schedule 0 (FIFO): {}\n  schedule {} (choices {:?}): {}",
                report.baseline, d.schedule, d.choices, d.outcome
            )
            .into());
        }
        if report.baseline.contains("watchdog") {
            return Err(format!(
                "simcheck {label}: every schedule stalls — {}",
                report.baseline
            )
            .into());
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
    let path = p.positional(0, "input file")?;
    let a = load(path)?;
    let procs = procs_flag(p, 4)?;
    let model = parse_model(p.flag_or("model", "sp2"))?;
    if a.rows() != a.cols() {
        return Err("advise uses the paper's square-array cost model".into());
    }
    let part = RowBlock::try_new(a.rows(), a.cols(), procs)?;
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
    let path = p.positional(0, "input file")?;
    let a = load(path)?;
    let procs = procs_flag(p, 4)?;
    let scheme = parse_scheme(p.flag_or("scheme", "ed"))?;
    let part = build_partition(p, a.rows(), a.cols(), procs)?;
    let machine = build_machine(p, procs, MachineModel::ibm_sp2())?;
    let run = run_scheme(scheme, &machine, &a, part.as_ref(), CompressKind::Crs)?;
    let x = vec![1.0; a.cols()];
    let (y, ledgers) = distributed_spmv_ledgers(&machine, &run, part.as_ref(), &x)?;
    let checksum: f64 = y.iter().sum();
    let compute_max = ledgers
        .iter()
        .map(|l| l.get(Phase::Compute).as_micros())
        .fold(0.0f64, f64::max);
    let (messages, bytes) = ledgers.iter().fold((0, 0), |(m, b), l| {
        let w = l.wire();
        (m + w.messages, b + w.bytes)
    });
    Ok(format!(
        "y = A·1 over {} processors: checksum {:.6}, ||y||_inf {:.6}, max compute {:.3}ms, \
         {} messages, {} bytes\n",
        procs,
        checksum,
        y.iter().fold(0.0f64, |m, v| m.max(v.abs())),
        compute_max / 1000.0,
        messages,
        bytes
    ))
}

/// `sparsedist checkpoint FILE.mtx DIR …` — distribute and save the
/// distributed state.
pub fn checkpoint_cmd(p: &Parsed) -> Result<String, CmdError> {
    let path = p.positional(0, "input file")?;
    let dir = p.positional(1, "checkpoint directory")?;
    let a = load(path)?;
    let procs = procs_flag(p, 4)?;
    let scheme = parse_scheme(p.flag_or("scheme", "ed"))?;
    let part = build_partition(p, a.rows(), a.cols(), procs)?;
    let machine = build_machine(p, procs, MachineModel::ibm_sp2())?;
    let dist = DistributedSparseArray::distribute(&machine, &a, part, scheme, CompressKind::Crs)?;
    dist.checkpoint(dir)?;
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
    let dir = p.positional(0, "checkpoint directory")?;
    let out = p.positional(1, "output .mtx path")?;
    let procs = procs_flag(p, 4)?;
    let rows = p.usize_or("rows", 0)?;
    let cols = p.usize_or("cols", rows)?;
    if rows == 0 {
        return Err(
            "restore needs --rows (and --cols for non-square) of the original array".into(),
        );
    }
    let part = build_partition(p, rows, cols, procs)?;
    let machine = Multicomputer::virtual_machine(procs, MachineModel::ibm_sp2());
    let dist = DistributedSparseArray::resume(&machine, part, CompressKind::Crs, dir)?;
    let dense = dist.gather_dense(GatherStrategy::Encoded)?;
    matrixmarket::write_file(out, &Coo::from_dense(&dense))?;
    Ok(format!(
        "restored {rows}x{cols} ({} nonzeros) from {dir} and wrote {out}\n",
        dist.nnz()
    ))
}

/// `sparsedist pipeline FILE.mtx …` — full lifecycle demo: distribute,
/// SpMV, repartition to a mesh, gather, verify.
pub fn pipeline_cmd(p: &Parsed) -> Result<String, CmdError> {
    let path = p.positional(0, "input file")?;
    let a = load(path)?;
    let procs = procs_flag(p, 4)?;
    let grid = parse_grid(p.flag_or("grid", "2x2"))?;
    if grid.0 * grid.1 != procs {
        return Err(format!("grid {}x{} does not match --procs {procs}", grid.0, grid.1).into());
    }
    let row = RowBlock::try_new(a.rows(), a.cols(), procs)?;
    let mesh = Mesh2D::try_new(a.rows(), a.cols(), grid.0, grid.1)?;
    let machine = build_machine(p, procs, MachineModel::ibm_sp2())?;
    let mut out = String::new();

    let mut dist = DistributedSparseArray::distribute(
        &machine,
        &a,
        Box::new(row),
        SchemeKind::Ed,
        CompressKind::Crs,
    )?;
    let _ = writeln!(
        out,
        "1. ED distribution (row):   busy max {}",
        dist.last_busy_max()
    );
    let y = dist.spmv(&vec![1.0; a.cols()])?;
    let _ = writeln!(
        out,
        "2. SpMV checksum:           {:.6}",
        y.iter().sum::<f64>()
    );
    dist.repartition(Box::new(mesh), RedistStrategy::Direct)?;
    let _ = writeln!(
        out,
        "3. repartition to mesh:     busy max {}",
        dist.last_busy_max()
    );
    let back = dist.gather_dense(GatherStrategy::Encoded)?;
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
    fn distribute_wire_v3_saves_bytes_at_equal_virtual_time() {
        let path = tmp("gen_wire.mtx");
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
            let v1 = crate::run(&argv(&format!(
                "distribute {path} --scheme {scheme} --procs 4"
            )))
            .unwrap();
            let v3 = crate::run(&argv(&format!(
                "distribute {path} --scheme {scheme} --procs 4 --wire v3"
            )))
            .unwrap();
            assert!(v1.contains("wire (v1)"), "{v1}");
            assert!(v3.contains("wire (v3/packed)"), "{v3}");
            assert!(v3.contains("verified"), "{v3}");
            // The codec moves bytes, never ops: the virtual clock cannot
            // tell the formats apart while the wire shrinks.
            assert_eq!(
                line(&v1, "T_Distribution"),
                line(&v3, "T_Distribution"),
                "{scheme}"
            );
            assert!(
                bytes(&v3) < bytes(&v1),
                "{scheme}: v3 {} !< v1 {}",
                bytes(&v3),
                bytes(&v1)
            );
        }

        assert!(crate::run(&argv(&format!("distribute {path} --wire v9"))).is_err());
    }

    #[test]
    fn retired_wire_v2_and_parallel_flag_are_errors() {
        let path = tmp("gen_retired.mtx");
        crate::run(&argv(&format!("gen {path} --rows 16 --ratio 0.2"))).unwrap();
        for cmd in [format!("distribute {path}"), "chaos --seeds 1".to_string()] {
            let name = cmd.split_whitespace().next().unwrap();
            let err = crate::run(&argv(&format!("{cmd} --wire v2"))).unwrap_err();
            assert!(
                err.contains("'v2'") && err.contains("(v1|v3)"),
                "{cmd}: {err}"
            );
            let err = crate::run(&argv(&format!("{cmd} --parallel yes"))).unwrap_err();
            assert!(
                err.starts_with(&format!("{name} does not take --parallel; accepted: ")),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn retired_codec_auto_is_an_error() {
        let path = tmp("gen_auto.mtx");
        crate::run(&argv(&format!("gen {path} --rows 16 --ratio 0.2"))).unwrap();
        for cmd in [format!("distribute {path}"), "chaos --seeds 1".to_string()] {
            let err = crate::run(&argv(&format!("{cmd} --wire v3 --codec auto"))).unwrap_err();
            assert_eq!(err, "unknown codec 'auto' (raw|delta|packed)", "{cmd}");
        }
    }

    #[test]
    fn distribute_codec_flag_and_streams_report() {
        let path = tmp("gen_streams.mtx");
        crate::run(&argv(&format!("gen {path} --rows 40 --ratio 0.1 --seed 3"))).unwrap();
        let d = crate::run(&argv(&format!(
            "distribute {path} --scheme cfs --procs 4 --wire v3 --codec delta --streams yes"
        )))
        .unwrap();
        assert!(d.contains("wire (v3/delta)"), "{d}");
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
    fn empty_array_is_a_typed_error() {
        let path = tmp("empty.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
        )
        .unwrap();
        for cmd in [
            "distribute",
            "distribute --partition colcyclic",
            "distribute --partition mesh --grid 2x2",
            "spmv",
            "advise",
            "pipeline",
        ] {
            let (cmd, flags) = cmd.split_once(' ').unwrap_or((cmd, ""));
            let err = crate::run(&argv(&format!("{cmd} {path} --procs 4 {flags}"))).unwrap_err();
            assert_eq!(err, "array dimensions must be positive", "{cmd} {flags}");
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
        let a = super::load(&path).unwrap();
        let want: f64 = sparsedist_ops::spmv::dense_spmv(&a, &[1.0; 36])
            .iter()
            .sum();
        assert!(want > 0.0);
        assert!(s.contains(&format!("checksum {want:.6},")), "{s}");
        let compute: f64 = s
            .split("max compute ")
            .nth(1)
            .and_then(|rest| rest.split("ms").next())
            .and_then(|ms| ms.parse().ok())
            .unwrap_or_else(|| panic!("no max compute in {s}"));
        assert!(compute > 0.0, "{s}");
        assert!(s.contains(" messages, "), "{s}");
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
    fn gen_clustered_refuses_a_non_square_array() {
        let path = tmp("gen_clustered_rect.mtx");
        let err = crate::run(&argv(&format!(
            "gen {path} --rows 100 --cols 50 --pattern clustered"
        )))
        .unwrap_err();
        assert_eq!(err, "clustered pattern needs a square array");
    }

    #[test]
    fn gen_laplacian_refuses_a_non_square_array() {
        let path = tmp("gen_laplacian_rect.mtx");
        let err = crate::run(&argv(&format!(
            "gen {path} --rows 36 --cols 30 --pattern laplacian"
        )))
        .unwrap_err();
        assert_eq!(err, "laplacian pattern needs a square array");
    }

    #[test]
    fn distribute_reports_a_non_finite_value_with_its_line() {
        let path = tmp("nan.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n2 2 NaN\n",
        )
        .unwrap();
        let err =
            crate::run(&argv(&format!("distribute {path} --procs 2 --scheme ed"))).unwrap_err();
        assert!(
            err.ends_with("parse error on line 4: value is not finite"),
            "{err}"
        );
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
    fn distribute_timeline_renders_waterfall_and_table() {
        let mtx = tmp("timeline.mtx");
        let trace = tmp("timeline_trace.json");
        let metrics = tmp("timeline_metrics.json");
        crate::run(&argv(&format!("gen {mtx} --rows 32 --ratio 0.2 --seed 4"))).unwrap();
        let t = crate::run(&argv(&format!(
            "distribute {mtx} --scheme cfs --procs 4 --timeline yes --trace {trace} \
             --metrics {metrics}"
        )))
        .unwrap();
        assert!(t.contains("waterfall"), "{t}");
        assert!(t.contains("phase summary"), "{t}");
        assert!(t.contains("P0") && t.contains("P3"), "{t}");
        assert!(t.contains(&format!("metrics:        4 ranks written to {metrics}")));
        assert!(std::fs::read_to_string(&trace)
            .unwrap()
            .contains("\"cat\":\"CFS\""));
        assert!(std::fs::read_to_string(&metrics)
            .unwrap()
            .contains("\"ops.total\""));
    }

    #[test]
    fn distribute_export_io_failure_is_a_typed_error_not_a_panic() {
        let mtx = tmp("trace_io.mtx");
        crate::run(&argv(&format!("gen {mtx} --rows 16"))).unwrap();
        for flag in ["trace", "metrics"] {
            let err = crate::run(&argv(&format!(
                "distribute {mtx} --procs 4 --{flag} /no/such/dir/out.json"
            )))
            .unwrap_err();
            assert!(err.contains("/no/such/dir/out.json"), "{flag}: {err}");
        }
    }

    #[test]
    fn trace_is_an_unknown_command() {
        let err = crate::run(&argv("trace x.mtx --out t.json")).unwrap_err();
        assert!(err.starts_with("unknown command 'trace'"), "{err}");
    }

    /// The lines `--timeline`, `--trace` and `--metrics` add: section
    /// headings, their indented bodies and the export lines.
    fn without_timeline_and_exports(out: &str) -> String {
        out.lines()
            .filter(|l| {
                !l.starts_with("    ")
                    && !["  waterfall (", "  phase summary:", "  fault recovery:"]
                        .iter()
                        .chain(&["  trace:", "  metrics:"])
                        .any(|head| l.starts_with(head))
            })
            .map(|l| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn timeline_and_exports_leave_the_rest_of_distribute_unchanged() {
        let mtx = tmp("timeline_same.mtx");
        let (trace, metrics) = (tmp("timeline_same.json"), tmp("timeline_same_m.json"));
        crate::run(&argv(&format!("gen {mtx} --rows 64 --ratio 0.1 --seed 2"))).unwrap();
        for extra in [
            "--faults seed=7,drop=0.2",
            "--faults die=2:300 --scheme cfs",
            "",
        ] {
            let plain = crate::run(&argv(&format!("distribute {mtx} --procs 4 {extra}"))).unwrap();
            let traced = crate::run(&argv(&format!(
                "distribute {mtx} --procs 4 {extra} --timeline yes --trace {trace} \
                 --metrics {metrics}"
            )))
            .unwrap();
            assert!(traced.contains("phase summary") && traced.contains("  metrics:"));
            assert_eq!(without_timeline_and_exports(&traced), plain, "{extra}");
        }
    }

    #[test]
    fn timeline_legend_names_every_char_in_the_bars() {
        let mtx = tmp("legend.mtx");
        crate::run(&argv(&format!("gen {mtx} --rows 64 --ratio 0.1 --seed 2"))).unwrap();
        let legend = super::timeline_legend();
        for p in sparsedist_multicomputer::Phase::ALL {
            let key = format!("{}={}", p.timeline_char(), p.label());
            assert_eq!(legend.matches(&key).count(), 1, "{key} in {legend}");
        }
        for extra in [
            "--faults seed=7,drop=0.2 --scheme ed",
            "--scheme sfc --overlap yes",
        ] {
            let out = crate::run(&argv(&format!(
                "distribute {mtx} --procs 4 --timeline yes {extra}"
            )))
            .unwrap();
            assert!(out.contains(&format!("  waterfall ({legend}):")), "{out}");
            let bars: String = out
                .lines()
                .filter(|l| l.starts_with("    P") && l.contains('|'))
                .filter_map(|l| l.split('|').nth(1))
                .collect();
            assert!(bars.contains('!') || !extra.contains("drop"), "{out}");
            for ch in bars.chars().filter(|&c| c != ' ') {
                assert!(legend.contains(&format!("{ch}=")), "{ch:?} not in {legend}");
            }
        }
    }

    #[test]
    fn generators_reject_bad_shapes_and_ratios() {
        let path = tmp("gen_bad.mtx");
        for (cmd, want) in [
            (
                format!("gen {path} --rows 0"),
                "array dimensions must be positive",
            ),
            (
                format!("gen {path} --rows 8 --cols 0"),
                "array dimensions must be positive",
            ),
            (
                format!("gen {path} --rows 0 --pattern banded"),
                "array dimensions must be positive",
            ),
            (
                format!("gen {path} --ratio 1.5"),
                "sparse ratio must be in [0,1], got 1.5",
            ),
            (
                format!("gen {path} --ratio nan"),
                "sparse ratio must be in [0,1], got NaN",
            ),
            (
                format!("gen {path} --rows 4 --pattern clustered"),
                "at least 8",
            ),
            (
                "chaos --rows 0 --seeds 1".into(),
                "array dimensions must be positive",
            ),
            ("chaos --ratio -1 --seeds 1".into(), "sparse ratio"),
            (
                "simcheck --rows 0".into(),
                "array dimensions must be positive",
            ),
            ("simcheck --ratio 2".into(), "sparse ratio"),
        ] {
            let err = crate::run(&argv(&cmd)).unwrap_err();
            assert!(err.contains(want), "{cmd}: {err}");
        }
    }

    #[test]
    fn restore_under_another_layout_is_a_typed_error() {
        let mtx = tmp("layout.mtx");
        let dir = tmp("layout_ckpt");
        let out = tmp("layout_out.mtx");
        let _ = std::fs::remove_dir_all(&dir);
        crate::run(&argv(&format!(
            "gen {mtx} --rows 90 --cols 70 --ratio 0.1 --seed 3"
        )))
        .unwrap();
        crate::run(&argv(&format!(
            "checkpoint {mtx} {dir} --partition column --procs 4"
        )))
        .unwrap();
        let restore = |flags: &str| crate::run(&argv(&format!("restore {dir} {out} {flags}")));
        assert!(restore("--partition column --procs 4 --rows 90 --cols 70").is_ok());
        for (flags, want) in [
            (
                "--partition row --procs 4 --rows 90 --cols 70",
                "local 0 shape mismatch: expected 23x70, found 90x18",
            ),
            (
                "--partition column --procs 2 --rows 90 --cols 70",
                "local array count mismatch: expected 2, one per part, found 4",
            ),
            (
                "--partition column --procs 4 --rows 70 --cols 90",
                "local 0 shape mismatch: expected 70x23, found 90x18",
            ),
        ] {
            let err = restore(flags).unwrap_err();
            assert!(
                err.starts_with("checkpoint does not fit the partition: "),
                "{err}"
            );
            assert!(err.ends_with(want), "{flags}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_reads_the_entries_without_a_dense_copy() {
        let path = tmp("info_sparse.mtx");
        // One explicit zero entry, which is not a nonzero, and a shape whose
        // dense copy would need 80 GB.
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate real general\n100000 100000 2\n\
             3 7 2.5\n5 5 0.0\n",
        )
        .unwrap();
        let i = crate::run(&argv(&format!("info {path}"))).unwrap();
        let want = format!(
            "{path}:\n  shape:        100000x100000\n  nonzeros:     1\n  \
             sparse ratio: 0.0000\n  max row nnz:  1\n  empty rows:   99999\n  \
             bandwidth:    4\n  s' (row, p=4): 0.0000\n"
        );
        assert_eq!(i, want);
    }
}
