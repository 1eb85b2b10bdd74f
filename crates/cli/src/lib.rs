#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Implementation of the `sparsedist` command-line tool.
//!
//! The binary front end (`src/main.rs`) is a thin shim over this library
//! so the argument parsing and every command can be unit-tested.

pub mod args;
pub mod commands;

pub use args::{ArgError, Parsed};

/// One subcommand's implementation.
type Command = fn(&Parsed) -> Result<String, commands::CmdError>;

/// Every subcommand, its implementation and the flags it accepts
/// (space-separated, without dashes). A flag missing from the list is an
/// error, so a typo such as `--proc 8` fails loudly instead of silently
/// running with the default.
const COMMANDS: &[(&str, Command, &str)] = &[
    (
        "gen",
        commands::generate,
        "rows cols ratio seed pattern bandwidth",
    ),
    ("info", commands::info, ""),
    (
        "distribute",
        commands::distribute,
        "scheme partition procs grid kind model faults retries wire codec parallel \
         overlap chunk-elems timeline streams trace",
    ),
    (
        "trace",
        commands::trace_cmd,
        "scheme partition procs grid kind model faults retries wire codec parallel \
         overlap chunk-elems width out metrics",
    ),
    (
        "chaos",
        commands::chaos_cmd,
        "seeds procs rows ratio scheme retries wire codec parallel overlap chunk-elems",
    ),
    (
        "simcheck",
        commands::simcheck_cmd,
        "procs rows ratio scheme config seeds max-schedules",
    ),
    ("advise", commands::advise, "procs model"),
    (
        "spmv",
        commands::spmv,
        "procs scheme partition grid faults retries",
    ),
    (
        "checkpoint",
        commands::checkpoint_cmd,
        "procs scheme partition grid faults retries",
    ),
    (
        "restore",
        commands::restore_cmd,
        "procs partition grid rows cols",
    ),
    (
        "pipeline",
        commands::pipeline_cmd,
        "procs grid faults retries",
    ),
];

/// Top-level dispatch: parse, check the flags against the command's
/// declared list, and run, returning the text to print.
pub fn run(argv: &[String]) -> Result<String, String> {
    let parsed = args::Parsed::parse(argv).map_err(|e| e.to_string())?;
    if matches!(parsed.command.as_str(), "help" | "") {
        return Ok(commands::USAGE.to_string());
    }
    let Some(&(_, command, accepted)) = COMMANDS.iter().find(|(name, ..)| *name == parsed.command)
    else {
        return Err(format!(
            "unknown command '{}'\n{}",
            parsed.command,
            commands::USAGE
        ));
    };
    parsed.check_flags(accepted).map_err(|e| e.to_string())?;
    command(&parsed)
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
}
