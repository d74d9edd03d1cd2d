//! The one flag reader behind every `exp` subcommand.
//!
//! [`Flags::each`] walks the arguments after the command word and hands
//! each one to the command's `match`; an arm that takes a value reads it
//! with one typed taker ([`Flags::positive`], [`Flags::scale`], …). A
//! taker returns the value or one [`FlagError`], and the command turns
//! that error into exit code 2 (or 0 for [`FlagError::Help`]). Every
//! diagnostic is worded here, once:
//!
//! * `<flag> requires <what>, got '<v>'` — a value of the wrong shape
//!   (a missing value reads as `''`);
//! * `<flag> requires <what>` — a flag whose free-form value is missing;
//! * `unknown <what> '<v>' (use <grammar>)` — a name outside its grammar;
//! * `unknown argument '<a>'` — a flag the command does not take.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use aep_core::SchemeKind;
use aep_faultsim::StrikeModel;
use aep_serve::Endpoint;
use aep_sim::runcache::parse_scheme_slug;
use aep_sim::Scale;
use aep_workloads::Workload;

/// Why a command's arguments did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// `help`, `--help` or `-h`: print the usage and exit 0.
    Help,
    /// A usage error, worded for stderr.
    Usage(String),
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Help => f.write_str("help requested"),
            FlagError::Usage(msg) => f.write_str(msg),
        }
    }
}

impl FlagError {
    /// Reports a failed parse of `command`'s arguments and returns the
    /// exit code: `usage` on stdout and 0 for help, otherwise
    /// `<command>: <error>` and `usage` on stderr and 2.
    #[must_use]
    pub(crate) fn exit_code(&self, command: &str, usage: &str) -> i32 {
        if *self == FlagError::Help {
            println!("{usage}");
            return 0;
        }
        eprintln!("{command}: {self}\n\n{usage}");
        2
    }
}

/// The `--jobs` default: every available core.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A cursor over a command's arguments; see the module docs.
pub struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// Calls `arm` with each argument in turn, stopping at the first
    /// error; `arm` reads the argument's value, if it takes one, with a
    /// taker, which moves the cursor past it.
    ///
    /// # Errors
    ///
    /// The first error `arm` returns.
    pub fn each(
        args: &'a [String],
        mut arm: impl FnMut(&mut Self, &'a str) -> Result<(), FlagError>,
    ) -> Result<(), FlagError> {
        let mut flags = Flags {
            rest: args.iter(),
            flag: "",
        };
        while let Some(flag) = flags.rest.next() {
            flags.flag = flag;
            arm(&mut flags, flag)?;
        }
        Ok(())
    }

    /// The current argument, rejected: `unknown argument '<a>'`.
    #[must_use]
    pub fn unknown(&self) -> FlagError {
        FlagError::Usage(format!("unknown argument '{}'", self.flag))
    }

    /// The flag's free-form value; `what` names it when it is missing
    /// (`<flag> requires <what>`).
    pub fn value(&mut self, what: &str) -> Result<&'a str, FlagError> {
        let flag = self.flag;
        self.rest
            .next()
            .map(String::as_str)
            .ok_or_else(|| FlagError::Usage(format!("{flag} requires {what}")))
    }

    /// [`Flags::value`] as a path.
    pub fn path(&mut self, what: &str) -> Result<PathBuf, FlagError> {
        self.value(what).map(PathBuf::from)
    }

    /// The flag's value as `parse` reads it, else `<flag> requires
    /// <what>, got '<v>'` (a missing value reads as `''`).
    pub(crate) fn parsed<T>(
        &mut self,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, FlagError> {
        let v = self.rest.next().map_or("", String::as_str);
        parse(v)
            .ok_or_else(|| FlagError::Usage(format!("{} requires {what}, got '{v}'", self.flag)))
    }

    /// An unsigned integer.
    pub fn uint<T: FromStr>(&mut self) -> Result<T, FlagError> {
        self.parsed("an unsigned integer", |v| v.parse().ok())
    }

    /// An integer of at least 1.
    pub fn positive<T: FromStr + PartialOrd + From<u8>>(&mut self) -> Result<T, FlagError> {
        self.parsed("a positive integer", |v| {
            v.parse().ok().filter(|n| *n >= T::from(1))
        })
    }

    /// A probability in `[0, 1]`.
    pub fn probability(&mut self) -> Result<f64, FlagError> {
        self.parsed("a probability in [0,1]", |v| {
            v.parse().ok().filter(|p| (0.0..=1.0).contains(p))
        })
    }

    /// The flag's value as a name `parse` knows, else `unknown <what>
    /// '<v>' (use <grammar>)`.
    pub(crate) fn named<T>(
        &mut self,
        what: &str,
        grammar: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, FlagError> {
        let v = self.rest.next().map_or("", String::as_str);
        parse(v).ok_or_else(|| FlagError::Usage(format!("unknown {what} '{v}' (use {grammar})")))
    }

    /// An experiment scale.
    pub fn scale(&mut self) -> Result<Scale, FlagError> {
        self.named("scale", "paper|quick|smoke", Scale::parse)
    }

    /// A scheme slug.
    pub fn scheme(&mut self) -> Result<SchemeKind, FlagError> {
        let grammar =
            "uniform|parity|uniform_clean:N|proposed:N|proposed_multi:N:E|silent:N|reuse:N:M";
        self.named("scheme", grammar, parse_scheme_slug)
    }

    /// A strike-model slug.
    pub fn model(&mut self) -> Result<StrikeModel, FlagError> {
        let grammar = "single|burst:K|col:K|row:K|accum:scrub[:CYCLES]";
        self.named("fault model", grammar, StrikeModel::parse)
    }

    /// A daemon endpoint, `tcp:ADDR` or `unix:PATH`.
    pub(crate) fn endpoint(&mut self) -> Result<Endpoint, FlagError> {
        Endpoint::parse(self.value("tcp:ADDR or unix:PATH")?).map_err(FlagError::Usage)
    }

    /// A workload slug that can stream (a named trace exists).
    pub fn workload(&mut self) -> Result<Workload, FlagError> {
        let grammar = "a benchmark name or a zipf:/storm:/flood:/phase:/trace: slug";
        let w = self.named("workload", grammar, Workload::parse)?;
        w.validate().map_err(FlagError::Usage)?;
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `args` with one taker per flag and returns the error text.
    fn error(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        let err = Flags::each(&args, |f, flag| {
            match flag {
                "--value" => _ = f.value("a thing")?,
                "--uint" => _ = f.uint::<u64>()?,
                "--positive" => _ = f.positive::<usize>()?,
                "--probability" => _ = f.probability()?,
                "--scale" => _ = f.scale()?,
                "--scheme" => _ = f.scheme()?,
                "--model" => _ = f.model()?,
                "--workload" => _ = f.workload()?,
                "--endpoint" => _ = f.endpoint()?,
                "help" => return Err(FlagError::Help),
                _ => return Err(f.unknown()),
            }
            Ok(())
        })
        .expect_err("the arguments are malformed");
        err.to_string()
    }

    #[test]
    fn each_taker_words_its_error_once() {
        for (args, want) in [
            (
                &["--uint", "x"][..],
                "--uint requires an unsigned integer, got 'x'",
            ),
            (
                &["--uint", "-1"][..],
                "--uint requires an unsigned integer, got '-1'",
            ),
            (
                &["--positive", "0"][..],
                "--positive requires a positive integer, got '0'",
            ),
            (
                &["--probability", "2.0"][..],
                "--probability requires a probability in [0,1], got '2.0'",
            ),
            (
                &["--scale", "huge"][..],
                "unknown scale 'huge' (use paper|quick|smoke)",
            ),
            (
                &["--scheme", "silent"][..],
                "unknown scheme 'silent' (use uniform|parity|uniform_clean:N|proposed:N|\
                 proposed_multi:N:E|silent:N|reuse:N:M)",
            ),
            (
                &["--model", "burst:99"][..],
                "unknown fault model 'burst:99' \
                 (use single|burst:K|col:K|row:K|accum:scrub[:CYCLES])",
            ),
            (
                &["--workload", "nosuch"][..],
                "unknown workload 'nosuch' \
                 (use a benchmark name or a zipf:/storm:/flood:/phase:/trace: slug)",
            ),
            (
                &["--endpoint", "carrier-pigeon"][..],
                "bad endpoint \"carrier-pigeon\": expected tcp:HOST:PORT or unix:PATH",
            ),
            (&["--frobnicate"][..], "unknown argument '--frobnicate'"),
            (
                &["--uint", "1", "--frobnicate"][..],
                "unknown argument '--frobnicate'",
            ),
        ] {
            assert_eq!(error(args), want, "{args:?}");
        }
    }

    #[test]
    fn a_value_flag_may_be_the_last_argument() {
        assert_eq!(error(&["--value"]), "--value requires a thing");
        assert_eq!(
            error(&["--endpoint"]),
            "--endpoint requires tcp:ADDR or unix:PATH"
        );
        assert_eq!(
            error(&["--uint"]),
            "--uint requires an unsigned integer, got ''"
        );
        assert_eq!(
            error(&["--positive"]),
            "--positive requires a positive integer, got ''"
        );
        assert_eq!(
            error(&["--scale"]),
            "unknown scale '' (use paper|quick|smoke)"
        );
    }

    #[test]
    fn takers_return_values_and_stop_at_the_first_error() {
        let args: Vec<String> = [
            "--jobs", "3", "--p", "0.5", "--out", "d", "help", "--jobs", "x",
        ]
        .iter()
        .map(|&a| a.to_owned())
        .collect();
        let (mut jobs, mut p, mut out) = (0usize, 0.0, PathBuf::new());
        let got = Flags::each(&args, |f, flag| {
            match flag {
                "--jobs" => jobs = f.positive()?,
                "--p" => p = f.probability()?,
                "--out" => out = f.path("a directory")?,
                "help" => return Err(FlagError::Help),
                _ => return Err(f.unknown()),
            }
            Ok(())
        });
        assert_eq!(got, Err(FlagError::Help));
        assert_eq!((jobs, p, out), (3, 0.5, PathBuf::from("d")));
    }

    #[test]
    fn a_workload_must_validate() {
        // The slug parses; the trace it names does not exist.
        let msg = error(&["--workload", "trace:nosuch"]);
        assert!(!msg.starts_with("unknown workload"), "{msg}");
        assert!(msg.contains("nosuch"), "{msg}");
    }
}
