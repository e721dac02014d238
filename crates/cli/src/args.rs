//! Minimal dependency-free argument parsing for the `clognet` binary.
//!
//! Grammar: `clognet <command> [--key value]...` with `--key=value` also
//! accepted. Unknown keys are an error (no silent typo-swallowing).

use std::collections::BTreeMap;

/// Parsed command line: the subcommand plus its `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (`run`, `compare`, `sweep`, `list`, ...).
    pub command: String,
    opts: BTreeMap<String, String>,
}

/// Option keys that are boolean flags: `--json` / `--quick` / `--no-ff`
/// take no value (`--json=false` still works to switch one off
/// explicitly).
const FLAG_KEYS: &[&str] = &[
    "json",
    "quick",
    "no-ff",
    "canonical",
    "owner",
    "warm-start",
    "fabric",
    "adaptive",
];

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl std::fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

impl From<clognet_proto::ConfigError> for ParseArgsError {
    fn from(e: clognet_proto::ConfigError) -> Self {
        ParseArgsError(e.to_string())
    }
}

impl Args {
    /// Parse raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Fails on a missing subcommand, a dangling `--key` with no value,
    /// or positional arguments after the subcommand.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ParseArgsError> {
        let mut it = raw.into_iter();
        let command = it
            .next()
            .ok_or_else(|| ParseArgsError("missing subcommand; try `clognet help`".into()))?;
        let mut opts = BTreeMap::new();
        while let Some(tok) = it.next() {
            let Some(body) = tok.strip_prefix("--") else {
                return Err(ParseArgsError(format!(
                    "unexpected positional argument `{tok}`"
                )));
            };
            if let Some((k, v)) = body.split_once('=') {
                opts.insert(k.to_string(), v.to_string());
            } else if FLAG_KEYS.contains(&body) {
                opts.insert(body.to_string(), "true".to_string());
            } else {
                let v = it
                    .next()
                    .ok_or_else(|| ParseArgsError(format!("option --{body} is missing a value")))?;
                opts.insert(body.to_string(), v);
            }
        }
        Ok(Args { command, opts })
    }

    /// Build an `Args` directly from a command and an option map — the
    /// entry point for options that arrive over the wire (a service
    /// job spec) rather than from a command line.
    pub fn from_opts(command: &str, opts: &BTreeMap<String, String>) -> Self {
        Args {
            command: command.to_string(),
            opts: opts.clone(),
        }
    }

    /// Fetch an option as a string.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// Fetch with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Whether a boolean flag is set (`--json`, `--json=true`, ...).
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true" | "1" | "yes"))
    }

    /// Fetch and parse a number.
    ///
    /// # Errors
    ///
    /// Fails if present but unparseable.
    pub fn get_num<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ParseArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseArgsError(format!("--{key} {v}: not a valid number"))),
        }
    }

    /// Fetch a number that must be at least `min`.
    ///
    /// # Errors
    ///
    /// Fails if present but unparseable, or below `min`.
    pub fn get_at_least<T>(&self, key: &str, default: T, min: T) -> Result<T, ParseArgsError>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
    {
        let n = self.get_num(key, default)?;
        let floor = || ParseArgsError(format!("--{key} must be at least {min}"));
        (n >= min).then_some(n).ok_or_else(floor)
    }

    /// Error on any option not in `allowed` (typo protection).
    ///
    /// # Errors
    ///
    /// Lists the offending option and the allowed set.
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ParseArgsError> {
        for k in self.opts.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ParseArgsError(format!(
                    "unknown option --{k}; allowed: {}",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }

    /// Error when both options of any listed pair are present —
    /// mutually exclusive output selectors like `--json` vs `--csv`.
    ///
    /// A boolean flag explicitly switched off (`--json=false`) does not
    /// count as present.
    ///
    /// # Errors
    ///
    /// Names the conflicting pair.
    pub fn reject_conflicts(&self, pairs: &[(&str, &str)]) -> Result<(), ParseArgsError> {
        let present = |key: &str| {
            if FLAG_KEYS.contains(&key) {
                self.flag(key)
            } else {
                self.get(key).is_some()
            }
        };
        for &(a, b) in pairs {
            if present(a) && present(b) {
                return Err(ParseArgsError(format!(
                    "--{a} and --{b} are mutually exclusive; pick one"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ParseArgsError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = parse("run --gpu HS --cycles 1000 --scheme=dr").unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("gpu"), Some("HS"));
        assert_eq!(a.get("scheme"), Some("dr"));
        assert_eq!(a.get_num("cycles", 0u64).unwrap(), 1000);
    }

    #[test]
    fn defaults_apply() {
        let a = parse("run").unwrap();
        assert_eq!(a.get_or("gpu", "HS"), "HS");
        assert_eq!(a.get_num("cycles", 42u64).unwrap(), 42);
    }

    #[test]
    fn fabric_is_a_bare_flag() {
        // `bench --fabric --out X` must not eat `--out` as a value.
        let a = parse("bench --fabric --out BENCH_fabric.json").unwrap();
        assert!(a.flag("fabric"));
        assert_eq!(a.get("out"), Some("BENCH_fabric.json"));
    }

    #[test]
    fn rejects_danglers_and_positionals() {
        assert!(parse("run --gpu").is_err());
        assert!(parse("run HS").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn rejects_unknown_options() {
        let a = parse("run --gpuu HS").unwrap();
        assert!(a.reject_unknown(&["gpu"]).is_err());
        let a = parse("run --gpu HS").unwrap();
        assert!(a.reject_unknown(&["gpu"]).is_ok());
    }

    #[test]
    fn bad_numbers_error() {
        let a = parse("run --cycles ten").unwrap();
        assert!(a.get_num("cycles", 0u64).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = parse("run --json --gpu HS").unwrap();
        assert!(a.flag("json"));
        assert_eq!(a.get("gpu"), Some("HS"));
        assert!(!parse("run").unwrap().flag("json"));
        assert!(!parse("run --json=false").unwrap().flag("json"));
        // Trailing flag must not eat a value.
        assert!(parse("run --json").unwrap().flag("json"));
    }

    #[test]
    fn conflicting_output_options_are_rejected() {
        let a = parse("run --json --csv out.csv").unwrap();
        let err = a.reject_conflicts(&[("json", "csv")]).unwrap_err();
        assert!(err.0.contains("--json"), "names the pair: {err}");
        assert!(err.0.contains("--csv"), "names the pair: {err}");
        assert!(err.0.contains("mutually exclusive"), "clear error: {err}");
    }

    #[test]
    fn non_conflicting_invocations_pass() {
        assert!(parse("run --json")
            .unwrap()
            .reject_conflicts(&[("json", "csv")])
            .is_ok());
        assert!(parse("run --csv out.csv")
            .unwrap()
            .reject_conflicts(&[("json", "csv")])
            .is_ok());
        assert!(parse("run")
            .unwrap()
            .reject_conflicts(&[("json", "csv")])
            .is_ok());
        // A flag switched off explicitly is not present.
        assert!(parse("run --json=false --csv out.csv")
            .unwrap()
            .reject_conflicts(&[("json", "csv")])
            .is_ok());
    }

    #[test]
    fn from_opts_round_trips_the_option_map() {
        let mut opts = BTreeMap::new();
        opts.insert("gpu".to_string(), "MM".to_string());
        opts.insert("scheme".to_string(), "dr".to_string());
        let a = Args::from_opts("run", &opts);
        assert_eq!(a.command, "run");
        assert_eq!(a.get("gpu"), Some("MM"));
        assert_eq!(a.get("scheme"), Some("dr"));
        assert_eq!(a.get("cpu"), None);
    }
}
