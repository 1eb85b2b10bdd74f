//! The repository benchmark: a seeded `.mtx` file becomes a verified
//! distributed state (SFC, CFS and ED), followed by a CG solve where the
//! workload has one.
//!
//! ```text
//! perfbench --workload <paper-row|scale-v3|cg-laplacian> --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! The input is generated outside the timed region. `--trace 0` repeats
//! the user's path until `--seconds` have passed and prints the medians of
//! the end-to-end metrics; `--trace 1` prints the per-layer metrics of
//! traced passes (see `layers.rs`). The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Every
//! failed operation is counted, never fatal; bad arguments exit with 2.

mod layers;
mod path;
mod spans;
mod workload;

use path::{label, Digest, Input};
use spans::Tracer;
use sparsedist_gen::matrixmarket;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::Spec;

/// A metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The untraced run repeats the path at least this often, so every
/// end-to-end time is a median of several samples.
const MIN_REPS: usize = 3;

/// Operations attempted and failed.
#[derive(Debug, Default)]
pub struct Counters {
    pub attempted: u64,
    pub failed: u64,
}

impl Counters {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count one checked operation; report it if it failed.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.failed += 1;
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    /// Internal: run one pass on the existing input of this many nonzeros
    /// and print its peak RSS and digest (see [`child_pass`]).
    pass_nnz: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut pass_nnz = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--pass-nnz" => pass_nnz = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: expected a positive number"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        pass_nnz,
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Element-wise medians of per-pass metric lists with identical names.
fn medians(passes: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let mut vs: Vec<f64> = passes.iter().map(|p| p[i].1).collect();
            (name.clone(), median(&mut vs), *unit)
        })
        .collect()
}

/// Write the workload's input; the program only ever sees this file.
fn write_input(spec: &Spec, seed: u64, dir: &Path) -> Result<Input, String> {
    let coo = workload::generate(spec.matrix, seed);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = input_path(spec, seed, dir);
    matrixmarket::write_file(&path, &coo).map_err(|e| format!("{}: {e}", path.display()))?;
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    Ok(Input {
        path,
        nnz: coo.nnz(),
        file_bytes,
        b: rhs(spec, seed),
    })
}

fn input_path(spec: &Spec, seed: u64, dir: &Path) -> PathBuf {
    dir.join(format!("{}-{seed}.mtx", spec.name))
}

fn rhs(spec: &Spec, seed: u64) -> Vec<f64> {
    if spec.solve {
        workload::rhs(spec.matrix.n(), seed)
    } else {
        Vec::new()
    }
}

/// `makespan_us` of `scheme` at `p16384` in `BENCH_scale.json`.
fn bench_scale_makespan_us(json: &str, scheme: &str) -> Option<f64> {
    let section = &json[json.find("\"p16384\"")?..];
    let entry = &section[section.find(&format!("\"{scheme}\""))?..];
    let key = "\"makespan_us\":";
    let value = entry[entry.find(key)? + key.len()..].trim_start();
    let end = value.find([',', '}'])?;
    value[..end].trim().parse().ok()
}

/// With the default seed, `scale-v3` distributes the array of
/// `BENCH_scale.json`'s `p16384` row; virtual time does not depend on the
/// wire format, so its makespans must match that row.
fn cross_check(spec: &Spec, args: &Args, digest: &Digest, c: &mut Counters) {
    if spec.name != "scale-v3" || args.tiny || args.seed != 0 {
        return;
    }
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_scale.json");
    let json = std::fs::read_to_string(file).unwrap_or_default();
    for s in &digest.schemes {
        let want = bench_scale_makespan_us(&json, label(s.scheme));
        let got = s.makespan_ms * 1e3;
        c.check(
            want.is_some_and(|w| (w - got).abs() <= 0.05),
            format!(
                "{} makespan {got:.1} us, BENCH_scale.json {want:?}",
                label(s.scheme)
            ),
        );
    }
}

/// The deterministic outputs as one line: wire bytes, CG iterations, then
/// `scheme=makespan_ms` pairs.
fn digest_line(d: &Digest) -> String {
    let iters = d.solve_iters.map_or("-".to_string(), |i| i.to_string());
    let mut line = format!("{} {iters}", d.wire_bytes());
    for s in &d.schemes {
        let _ = write!(line, " {}={}", label(s.scheme), s.makespan_ms);
    }
    line
}

/// One pass in this process, for [`untraced`]'s child: prints
/// `pass <attempted> <failed> <VmHWM MiB> <digest line>`.
fn one_pass(spec: &Spec, input: &Input) -> String {
    let out = path::run(spec, input, &mut Tracer::new(false));
    let mut c = Counters::default();
    c.add(out.attempted, out.failed);
    let rss = peak_rss_mb();
    c.check(rss.is_some(), "VmHWM unavailable");
    format!(
        "pass {} {} {} {}",
        c.attempted,
        c.failed,
        rss.unwrap_or(0.0),
        digest_line(&out.digest)
    )
}

/// Run [`one_pass`] in a fresh child process and wait for it; returns its
/// peak RSS and digest line.
fn child_pass(spec: &Spec, input: &Input, args: &Args, c: &mut Counters) -> Option<(f64, String)> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", spec.name, "--trace", "0"])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--pass-nnz", &input.nnz.to_string()]);
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rest = stdout.lines().last()?.strip_prefix("pass ")?;
    let mut t = rest.splitn(4, ' ');
    let attempted = t.next()?.parse().ok()?;
    let failed = t.next()?.parse().ok()?;
    let rss = t.next()?.parse().ok()?;
    c.add(attempted, failed);
    Some((rss, t.next()?.to_string()))
}

/// The untraced run: the user's path repeated in this process until
/// `--seconds` have passed, reporting median times. Peak RSS comes from one
/// more pass in a fresh process, so it covers exactly one pass.
fn untraced(spec: &Spec, input: &Input, args: &Args, c: &mut Counters) -> Vec<Metric> {
    let start = Instant::now();
    let mut tr = Tracer::new(false);
    let mut reps: Vec<[f64; 5]> = Vec::new();
    let mut digest: Option<Digest> = None;
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let out = path::run(spec, input, &mut tr);
        c.add(out.attempted, out.failed);
        let times = [out.setup_s, out.distribute_s, out.verify_s, out.solve_s];
        reps.push([times[0], times[1], times[2], times[3], times.iter().sum()]);
        match &digest {
            None => digest = Some(out.digest),
            Some(d) => c.check(
                *d == out.digest,
                "repeated passes disagree on virtual outputs",
            ),
        }
    }
    let digest = digest.unwrap_or_default();
    cross_check(spec, args, &digest, c);
    let child = child_pass(spec, input, args, c);
    c.check(
        child
            .as_ref()
            .is_some_and(|(_, d)| *d == digest_line(&digest)),
        "a fresh process disagrees on virtual outputs",
    );

    let col = |i: usize| median(&mut reps.iter().map(|r| r[i]).collect::<Vec<_>>());
    let mut m: Vec<Metric> = vec![
        ("setup_s".into(), col(0), "s"),
        ("distribute_s".into(), col(1), "s"),
        ("verify_s".into(), col(2), "s"),
        ("total_s".into(), col(4), "s"),
        (
            "peak_rss_mb".into(),
            child.map_or(0.0, |(rss, _)| rss),
            "MiB",
        ),
        ("wire_bytes".into(), digest.wire_bytes() as f64, "B"),
    ];
    for s in &digest.schemes {
        m.push((
            format!("makespan_ms.{}", label(s.scheme)),
            s.makespan_ms,
            "virtual_ms",
        ));
    }
    eprintln!(
        "perfbench: {} passes in {:.1} s; solve_s median {:.4}, solve_iters {:?}",
        reps.len(),
        start.elapsed().as_secs_f64(),
        col(3),
        digest.solve_iters
    );
    m
}

fn traced(spec: &Spec, input: &Input, args: &Args, dir: &Path, c: &mut Counters) -> Vec<Metric> {
    let start = Instant::now();
    let mut tr = Tracer::new(true);
    let mut passes = Vec::new();
    let mut first: Option<Digest> = None;
    for pass in 0u32.. {
        tr.set_pass(pass);
        let (metrics, digest) = layers::pass(spec, input, args.seed, args.tiny, &mut tr, c);
        passes.push(metrics);
        match &first {
            None => {
                cross_check(spec, args, &digest, c);
                first = Some(digest);
            }
            Some(d) => c.check(*d == digest, "repeated passes disagree on virtual outputs"),
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let trace_path = dir.join(format!("trace-{}.json", spec.name));
    if let Err(e) = std::fs::write(&trace_path, tr.to_json()) {
        c.check(false, format!("{}: {e}", trace_path.display()));
    }
    eprintln!(
        "perfbench: {} traced passes, {} spans written to {}",
        passes.len(),
        tr.span_count(),
        trace_path.display()
    );
    medians(&passes)
}

fn render(c: &Counters, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        c.failed == 0,
        c.attempted.max(1),
        c.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Keep freed memory in this process: glibc then serves every allocation
/// from its heaps, never from fresh mappings, and never trims them. Passes
/// after the first reuse memory that is already mapped instead of faulting
/// in (on a VM, through the hypervisor) hundreds of MiB per pass, whose
/// cost swings with the load on the host. The child pass that measures
/// peak RSS keeps the default allocator, as a user's process does.
fn keep_freed_memory() {
    // Parameter numbers from glibc's <malloc.h>.
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two plain integers and only changes the
    // allocator's tunables under its own lock; no pointer is passed.
    let ok = unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 };
    if !ok {
        eprintln!("perfbench: mallopt refused; freed memory goes back to the system");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload, args.tiny) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    if let Some(nnz) = args.pass_nnz {
        let input = Input {
            path: input_path(&spec, args.seed, &dir),
            nnz,
            file_bytes: 0,
            b: rhs(&spec, args.seed),
        };
        println!("{}", one_pass(&spec, &input));
        return ExitCode::SUCCESS;
    }
    keep_freed_memory();
    let input = match write_input(&spec, args.seed, &dir) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("perfbench: writing the input: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "perfbench: {} {:?} with {} nonzeros",
        spec.name, spec.matrix, input.nnz
    );

    let mut c = Counters::default();
    let mut metrics = if args.trace {
        traced(&spec, &input, &args, &dir, &mut c)
    } else {
        untraced(&spec, &input, &args, &mut c)
    };
    let _ = std::fs::remove_file(&input.path);
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            c.check(false, format!("{name} is not finite"));
            *value = 0.0;
        }
    }
    println!("{}", render(&c, &metrics));
    ExitCode::SUCCESS
}
