//! Minimal argument parsing: `command [positional…] [--flag value]…`.

use std::collections::BTreeMap;
use std::fmt;

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared with no value.
    MissingValue(String),
    /// No command word was given.
    NoCommand,
    /// A flag value failed to parse.
    BadValue {
        /// The flag name (without dashes).
        flag: String,
        /// The value supplied.
        value: String,
        /// What a valid value looks like.
        expected: &'static str,
    },
    /// A required flag or positional was absent.
    Missing(&'static str),
    /// A `--flag` the command does not declare.
    UnknownFlag {
        /// The command word.
        command: String,
        /// The offending flag name (without dashes).
        flag: String,
        /// The flags the command accepts, space-separated.
        accepted: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ArgError::NoCommand => write!(f, "no command given (try 'sparsedist help')"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "--{flag} {value}: expected {expected}")
            }
            ArgError::Missing(what) => write!(f, "missing required {what}"),
            ArgError::UnknownFlag {
                command,
                flag,
                accepted,
            } => {
                write!(f, "{command} does not take --{flag}")?;
                let accepted: Vec<&str> = accepted.split_whitespace().collect();
                if accepted.is_empty() {
                    write!(f, " (it takes no flags)")
                } else {
                    write!(f, "; accepted: --{}", accepted.join(", --"))
                }
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// A parsed command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Parsed {
    /// The command word.
    pub command: String,
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--flag value` pairs.
    pub flags: BTreeMap<String, String>,
}

impl Parsed {
    /// Parse `argv` (excluding the program name).
    pub fn parse(argv: &[String]) -> Result<Parsed, ArgError> {
        let mut it = argv.iter().peekable();
        let command = it.next().cloned().ok_or(ArgError::NoCommand)?;
        let mut out = Parsed {
            command,
            ..Parsed::default()
        };
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(name.into()))?;
                out.flags.insert(name.to_string(), value.clone());
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// Reject any flag not in `accepted`, the command's declared flags
    /// (space-separated, without dashes).
    pub fn check_flags(&self, accepted: &'static str) -> Result<(), ArgError> {
        let declared = |flag: &String| accepted.split_whitespace().any(|a| a == flag);
        match self.flags.keys().find(|f| !declared(f)) {
            None => Ok(()),
            Some(flag) => Err(ArgError::UnknownFlag {
                command: self.command.clone(),
                flag: flag.clone(),
                accepted,
            }),
        }
    }

    /// A flag as a string, with a default.
    pub fn flag_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map(String::as_str).unwrap_or(default)
    }

    /// A flag parsed as `usize`, with a default.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, ArgError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: name.into(),
                value: v.clone(),
                expected: "an unsigned integer",
            }),
        }
    }

    /// A flag parsed as `f64`, with a default.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: name.into(),
                value: v.clone(),
                expected: "a number",
            }),
        }
    }

    /// Positional argument `i`, or an error naming it.
    pub fn positional(&self, i: usize, what: &'static str) -> Result<&str, ArgError> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or(ArgError::Missing(what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_positionals_flags() {
        let p = Parsed::parse(&argv("gen out.mtx --rows 100 --ratio 0.1")).unwrap();
        assert_eq!(p.command, "gen");
        assert_eq!(p.positional, vec!["out.mtx"]);
        assert_eq!(p.flag_or("rows", "0"), "100");
        assert_eq!(p.usize_or("rows", 0).unwrap(), 100);
        assert_eq!(p.f64_or("ratio", 0.5).unwrap(), 0.1);
        assert_eq!(p.f64_or("absent", 0.5).unwrap(), 0.5);
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(Parsed::parse(&[]), Err(ArgError::NoCommand));
    }

    #[test]
    fn dangling_flag_rejected() {
        assert_eq!(
            Parsed::parse(&argv("gen --rows")),
            Err(ArgError::MissingValue("rows".into()))
        );
    }

    #[test]
    fn bad_numeric_value_reported() {
        let p = Parsed::parse(&argv("gen --rows abc")).unwrap();
        let err = p.usize_or("rows", 1).unwrap_err();
        assert!(err.to_string().contains("expected an unsigned integer"));
    }

    #[test]
    fn undeclared_flag_rejected() {
        let p = Parsed::parse(&argv("gen out.mtx --rows 4 --rwos 5")).unwrap();
        assert!(p.check_flags("rows rwos").is_ok());
        let err = p.check_flags("rows cols").unwrap_err().to_string();
        assert_eq!(err, "gen does not take --rwos; accepted: --rows, --cols");
    }

    #[test]
    fn positional_accessor() {
        let p = Parsed::parse(&argv("info file.mtx")).unwrap();
        assert_eq!(p.positional(0, "input file").unwrap(), "file.mtx");
        assert!(p.positional(1, "output file").is_err());
    }
}
