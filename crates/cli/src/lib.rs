#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Implementation of the `sparsedist` command-line tool.
//!
//! The binary front end (`src/main.rs`) is a thin shim over this library
//! so the argument parsing and every command can be unit-tested.

pub mod args;
pub mod commands;

pub use args::{ArgError, Parsed};
use std::fmt::Write as _;

/// A subcommand's implementation.
type Run = fn(&Parsed) -> Result<String, commands::CmdError>;

/// What a subcommand runs, its positional arguments as USAGE shows them,
/// and the paragraphs USAGE prints under its entry (one per line). The
/// flags it accepts are the third field of its [`COMMANDS`] row.
struct Command(Run, &'static str, &'static str);

/// Every subcommand: its name, its [`Command`] and the flags it accepts
/// (space-separated, without dashes). A flag missing from the list is an
/// error, so a typo such as `--proc 8` fails loudly instead of silently
/// running with the default. USAGE is rendered from this table.
const COMMANDS: &[(&str, Command, &str)] = &[
    (
        "gen",
        Command(commands::generate, "OUT.mtx", ""),
        "rows cols ratio seed pattern bandwidth",
    ),
    ("info", Command(commands::info, "FILE.mtx", ""), ""),
    (
        "distribute",
        Command(commands::distribute, "FILE.mtx", DISTRIBUTE_NOTES),
        "scheme partition procs grid kind model faults retries wire codec overlap \
         chunk-elems timeline streams trace metrics",
    ),
    (
        "chaos",
        Command(commands::chaos_cmd, "", CHAOS_NOTES),
        "seeds procs rows ratio scheme retries wire codec overlap chunk-elems",
    ),
    (
        "simcheck",
        Command(commands::simcheck_cmd, "", SIMCHECK_NOTES),
        "procs rows ratio scheme config seeds max-schedules",
    ),
    (
        "advise",
        Command(commands::advise, "FILE.mtx", ""),
        "procs model",
    ),
    (
        "spmv",
        Command(commands::spmv, "FILE.mtx", ""),
        "procs scheme partition grid faults retries",
    ),
    (
        "checkpoint",
        Command(commands::checkpoint_cmd, "FILE.mtx DIR", ""),
        "procs scheme partition grid faults retries",
    ),
    (
        "restore",
        Command(commands::restore_cmd, "DIR OUT.mtx", ""),
        "procs partition grid rows cols",
    ),
    (
        "pipeline",
        Command(commands::pipeline_cmd, "FILE.mtx", ""),
        "procs grid faults retries",
    ),
];

const DISTRIBUTE_NOTES: &str = "--faults takes comma-separated key=value tokens, e.g. \
    'seed=7,drop=0.2', 'dead=2', 'corrupt@0-1=0.5,phase=send' or 'die=1:500' (rank 1 dies \
    500 µs in and its parts re-home mid-stream); --retries bounds retransmissions per message \
    (default 6). --overlap sends each part as soon as it is encoded; --chunk-elems streams \
    parts as framed chunks of at most N elements. --wire v3 adds per-stream codecs; --codec \
    picks the one every message uses (default packed). --streams reports the bytes per \
    stream (indices vs values, raw vs encoded).\n\
    --timeline prints a per-rank waterfall of the run on the virtual clock, a phase × rank \
    table and any fault recovery; --trace writes a Chrome-trace JSON (load in Perfetto) and \
    --metrics the per-rank counters and histograms. Every rank is a task on one deterministic \
    event loop, so --procs goes up to 131072 on every subcommand.";

const CHAOS_NOTES: &str = "chaos sweeps N seeded fault plans (drops, corruption, delays, \
    mid-run rank deaths) over one scheme, or all three with --scheme all (the default). \
    Every run must reconstruct the golden array exactly or fail with a typed error, never \
    panic or stall (the event loop's deadlock watchdog trips stalls). The same seeds always \
    generate the same plans.";

const SIMCHECK_NOTES: &str = "simcheck runs one scheme through EVERY message-delivery \
    interleaving of the event loop (--procs 2..=4), depth-first by replay, and checks that \
    ledgers, local arrays and owner maps are bit-identical across schedules and that none \
    deadlocks: the dynamic twin of the lint C rules. 'routed' adds a mid-stream rank death, \
    so parts re-home while frames are in flight; 'chaos' sweeps --seeds seeded fault plans. \
    Nonzero exit on divergence, deadlock or truncation.";

/// The value each flag takes, as USAGE shows it (`flag=HINT`, space-
/// separated). A flag means the same on every subcommand that accepts
/// it, so its hint is declared once, here.
const FLAG_HINTS: &str = "bandwidth=N chunk-elems=N codec=raw|delta|packed cols=N \
    config=pipeline|routed|chaos|all faults=SPEC grid=RxC kind=crs|ccs max-schedules=N \
    metrics=FILE.json model=sp2|compute|network overlap=yes \
    partition=row|column|mesh|rowcyclic|colcyclic pattern=uniform|banded|laplacian|clustered \
    procs=P ratio=S retries=N rows=N scheme=sfc|cfs|ed seed=K seeds=N streams=yes \
    timeline=yes trace=FILE.json wire=v1|v3";

/// `flag`'s hint in [`FLAG_HINTS`].
fn hint(flag: &str) -> Option<&'static str> {
    FLAG_HINTS
        .split_whitespace()
        .find_map(|pair| pair.strip_prefix(flag)?.strip_prefix('='))
}

/// The widest line USAGE wraps to.
const USAGE_WIDTH: usize = 78;

/// Append `first`, then `words`, to `out` as lines of at most
/// [`USAGE_WIDTH`] columns, the second and later lines indented by
/// `indent` spaces.
fn wrap(out: &mut String, first: &str, indent: usize, words: impl Iterator<Item = String>) {
    out.push_str(first);
    let mut width = first.chars().count();
    for word in words {
        let len = word.chars().count();
        if width + 1 + len > USAGE_WIDTH {
            let _ = write!(out, "\n{:1$}", "", indent - 1);
            width = indent - 1;
        }
        let _ = write!(out, " {word}");
        width += 1 + len;
    }
    out.push('\n');
}

/// The help text, rendered from [`COMMANDS`] and [`FLAG_HINTS`].
fn render_usage() -> String {
    let mut out = String::from("sparsedist — sparse array distribution toolkit\n\nUSAGE:\n");
    for (name, Command(_, args, notes), flags) in COMMANDS {
        let synopsis = flags
            .split_whitespace()
            .map(|flag| format!("[--{flag} {}]", hint(flag).unwrap_or("VALUE")));
        let head = format!("  sparsedist {name} {args}");
        wrap(&mut out, head.trim_end(), 25, synopsis);
        for paragraph in notes.lines() {
            out.push('\n');
            wrap(
                &mut out,
                " ",
                2,
                paragraph.split_whitespace().map(String::from),
            );
        }
        if !notes.is_empty() {
            out.push('\n');
        }
    }
    out.push_str(
        "  sparsedist help\n\n  Each subcommand accepts only the flags listed for it; any other\n  \
         --flag is an error.\n",
    );
    out
}

/// Top-level dispatch: parse, check the flags against the command's
/// declared list, and run, returning the text to print.
pub fn run(argv: &[String]) -> Result<String, String> {
    let parsed = args::Parsed::parse(argv).map_err(|e| e.to_string())?;
    if matches!(parsed.command.as_str(), "help" | "") {
        return Ok(commands::USAGE.to_string());
    }
    let Some((_, Command(run, ..), accepted)) =
        COMMANDS.iter().find(|(name, ..)| *name == parsed.command)
    else {
        return Err(format!(
            "unknown command '{}'\n{}",
            parsed.command,
            commands::USAGE.as_str()
        ));
    };
    parsed.check_flags(accepted).map_err(|e| e.to_string())?;
    run(&parsed).map_err(|e| e.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The `--flag` names mentioned in `text`.
    fn flags_in(text: &str) -> BTreeSet<&str> {
        text.split("--")
            .skip(1)
            .filter_map(|rest| {
                rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .next()
                    .filter(|flag| !flag.is_empty())
            })
            .collect()
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_subcommand_accepts() {
        for &(name, _, accepted) in COMMANDS {
            let head = format!("\n  sparsedist {name} ");
            let start = commands::USAGE
                .find(&head)
                .unwrap_or_else(|| panic!("USAGE has no entry for `{name}`"));
            let rest = &commands::USAGE[start + head.len()..];
            let entry = &rest[..rest.find("\n  sparsedist ").unwrap_or(rest.len())];
            let accepted: BTreeSet<&str> = accepted.split_whitespace().collect();
            assert_eq!(flags_in(entry), accepted, "USAGE entry for `{name}`");
        }
    }

    #[test]
    fn every_declared_flag_has_one_hint_and_usage_fits_its_width() {
        let declared: BTreeSet<&str> = COMMANDS
            .iter()
            .flat_map(|(_, _, flags)| flags.split_whitespace())
            .collect();
        let hinted: Vec<&str> = FLAG_HINTS
            .split_whitespace()
            .filter_map(|pair| pair.split_once('=').map(|(flag, _)| flag))
            .collect();
        assert_eq!(hinted.len(), FLAG_HINTS.split_whitespace().count());
        assert!(hinted.windows(2).all(|w| w[0] < w[1]), "sorted, once each");
        assert_eq!(declared, hinted.into_iter().collect());
        assert_eq!((hint("seed"), hint("seeds")), (Some("K"), Some("N")));
        for line in commands::USAGE.lines() {
            assert!(line.chars().count() <= USAGE_WIDTH, "too wide: {line}");
        }
    }
}
