//! The one declaration behind every `exp` command, and the flag reader
//! that runs from it.
//!
//! Each command is one [`Command`]: the words that select it (`fig1`,
//! `explore grid`), one `about` line, the [`Flag`]s it takes and what it
//! runs. An options type declares each of its flags once, with
//! [`flags!`](crate::flags!): its name, its value's name, one help line,
//! and a setter that reads the value with one typed taker
//! ([`Flags::positive`], [`Flags::scale`], …). [`dispatch`] picks the
//! command, [`Flags::each`] feeds every argument to the flag of that name
//! and rejects any other, and `exp help`, `exp <command> help` and every
//! usage error render from the same declarations. Every diagnostic is
//! worded here, once:
//!
//! * `<flag> requires <what>, got '<v>'` — a value of the wrong shape
//!   (a missing value reads as `''`);
//! * `<flag> requires <what>` — a flag whose free-form value is missing;
//! * `unknown <what> '<v>' (use <grammar>)` — a name outside its grammar;
//! * `unknown argument '<a>'` — a flag the command does not declare.
//!
//! The exit code is 0 for success and for `help`, 1 for a runtime
//! failure and 2 for a usage error.

use std::fmt::{self, Write as _};
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

/// The help line of every `--jobs` whose output does not depend on it.
pub const JOBS_HELP: &str = "worker threads; output is identical for any N (default: all cores)";
/// The help line of every `--no-cache`.
pub const NO_CACHE_HELP: &str = "ignore and do not write results/cache/";
/// The help line of every `--scheme`.
pub const SCHEME_HELP: &str = "scheme slug: uniform|parity|uniform_clean:N|proposed:N|\
    proposed_multi:N:E|silent:N|reuse:N:M (default: proposed at the calibrated interval)";

/// One flag of the options type `O`, declared once with [`flags!`](crate::flags!).
pub struct Flag<O> {
    /// The flag as typed, `--jobs`.
    pub name: &'static str,
    /// Its value's name in the usage (`N`), empty for a switch.
    pub value: &'static str,
    /// One help line.
    pub help: &'static str,
    /// Reads the value, if any, with a taker and stores it.
    pub set: fn(&mut Flags<'_>, &mut O) -> Result<(), FlagError>,
}

/// Declares flags of one options type as constants, one entry each:
/// `IDENT "--name" "VALUE" "help", |f, o| <statement>;`, with `""` as the
/// value of a switch. The statement reads the value with a taker on `f`
/// (a failed read returns its error) and stores it in `o`.
#[macro_export]
macro_rules! flags {
    ($opts:ty: $($id:ident $name:literal $value:literal $help:expr, |$f:tt, $o:tt| $set:expr;)*) => {
        $(const $id: $crate::flags::Flag<$opts> = $crate::flags::Flag {
            name: $name,
            value: $value,
            help: $help,
            set: |$f, $o| {
                $set;
                Ok(())
            },
        };)*
    };
}

/// One `exp` command, declared once: its words, one `about` line, the
/// flags it takes and what it runs on the options they set.
pub struct Command {
    words: &'static str,
    about: String,
    run: Run,
}

/// Parses a command's arguments and runs it; returns the exit code.
type Run = Box<dyn Fn(&[String]) -> i32>;

impl Command {
    /// The command `words` (`fig1`, `explore grid`): it starts from
    /// `init()`, sets `flags` from its arguments and returns `run`'s exit
    /// code, or prints its usage for `help` and for a usage error.
    pub fn new<O: 'static>(
        words: &'static str,
        about: impl Into<String>,
        flags: &'static [Flag<O>],
        init: fn() -> O,
        run: impl Fn(O) -> i32 + 'static,
    ) -> Self {
        let about = about.into();
        let mut usage = format!(
            "usage: exp {words} [flags]\n\n{}\n\nflags:",
            wrap(&about, 0)
        );
        for f in flags {
            let flag = format!("{} {}", f.name, f.value);
            let _ = write!(usage, "\n  {:<20}{}", flag.trim_end(), wrap(f.help, 22));
        }
        Command {
            words,
            about,
            run: Box::new(move |args| {
                let mut opts = init();
                match Flags::each(args, flags, &mut opts) {
                    Ok(()) => run(opts),
                    Err(e) => e.exit_code(&format!("exp {words}"), &usage),
                }
            }),
        }
    }
}

/// `text` in lines of at most 80 columns when it starts at column `at`,
/// the lines after the first indented to `at`.
fn wrap(text: &str, at: usize) -> String {
    let mut lines = vec![String::new()];
    for word in text.split_whitespace() {
        let line = lines.last_mut().expect("there is a line");
        if line.is_empty() {
            line.push_str(word);
        } else if at + line.chars().count() + 1 + word.chars().count() <= 80 {
            line.push(' ');
            line.push_str(word);
        } else {
            lines.push(word.to_owned());
        }
    }
    lines.join(&format!("\n{:at$}", ""))
}

/// Runs the command whose words start `args` and returns its exit code.
/// `exp`, `exp help` and `exp <command> help` print usage and return 0;
/// an unknown command or mode prints the usage of every command it could
/// have meant on stderr and returns 2.
#[must_use]
pub fn dispatch(commands: &[Command], args: &[String]) -> i32 {
    for c in commands {
        let n = c.words.split(' ').count();
        if args.len() >= n && c.words.split(' ').eq(args[..n].iter().map(String::as_str)) {
            return (c.run)(&args[n..]);
        }
    }
    // A group's name (`explore`) lists its modes; anything else, every command.
    let first = args.first().map_or("", String::as_str);
    let group: Vec<&Command> = commands
        .iter()
        .filter(|c| c.words.split_once(' ').is_some_and(|(w, _)| w == first))
        .collect();
    let grouped = !group.is_empty();
    let (listed, name, what) = if grouped {
        (group, format!("exp {first}"), "mode")
    } else {
        (commands.iter().collect(), "exp".to_owned(), "command")
    };
    let lines: String = listed
        .iter()
        .map(|c| format!("  {:<22}{}\n", c.words, wrap(&c.about, 24)))
        .collect();
    let usage = format!(
        "exp — regenerate the paper's tables and figures\n\n\
         usage: {name} <{what}> [flags]   (`{name} <{what}> help` lists its flags)\n\n\
         {what}s:\n{lines}\n\
         exit codes: 0 success, 1 runtime failure (a gate regression, a check\n\
         violation, a broken floor, an unreachable daemon, an I/O error), 2 usage error"
    );
    let err = match args.get(usize::from(grouped)).map(String::as_str) {
        Some("help" | "--help" | "-h") => FlagError::Help,
        None if grouped => {
            let modes: Vec<&str> = listed.iter().map(|c| &c.words[first.len() + 1..]).collect();
            FlagError::Usage(format!("missing mode ({})", modes.join("|")))
        }
        None => FlagError::Help,
        Some(other) => FlagError::Usage(format!("unknown {what} '{other}'")),
    };
    err.exit_code(&name, &usage)
}

/// A cursor over a command's arguments; see the module docs.
pub struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// Hands each argument to the flag of `flags` with its name, whose
    /// setter reads its value, if it takes one, with a taker, which moves
    /// the cursor past it.
    ///
    /// # Errors
    ///
    /// [`FlagError::Help`] at `help`, `--help` or `-h`; `unknown argument
    /// '<a>'` at an argument no flag declares; else the first error a
    /// setter returns.
    pub fn each<O>(args: &'a [String], flags: &[Flag<O>], opts: &mut O) -> Result<(), FlagError> {
        let mut cursor = Flags {
            rest: args.iter(),
            flag: "",
        };
        while let Some(arg) = cursor.rest.next() {
            cursor.flag = arg;
            if matches!(cursor.flag, "help" | "--help" | "-h") {
                return Err(FlagError::Help);
            }
            let flag = flags
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| FlagError::Usage(format!("unknown argument '{arg}'")))?;
            (flag.set)(&mut cursor, opts)?;
        }
        Ok(())
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

    /// What the test flags read.
    #[derive(Default)]
    struct Got {
        jobs: usize,
        p: f64,
        out: PathBuf,
    }

    crate::flags! { Got:
        VALUE "--value" "V" "", |f, _| f.value("a thing")?;
        UINT "--uint" "N" "", |f, _| f.uint::<u64>()?;
        POSITIVE "--positive" "N" "", |f, _| f.positive::<usize>()?;
        PROBABILITY "--probability" "P" "", |f, _| f.probability()?;
        SCALE "--scale" "S" "", |f, _| f.scale()?;
        SCHEME "--scheme" "S" "", |f, _| f.scheme()?;
        MODEL "--model" "M" "", |f, _| f.model()?;
        WORKLOAD "--workload" "W" "", |f, _| f.workload()?;
        ENDPOINT "--endpoint" "E" "", |f, _| f.endpoint()?;
        JOBS "--jobs" "N" "", |f, o| o.jobs = f.positive()?;
        P "--p" "P" "", |f, o| o.p = f.probability()?;
        OUT "--out" "DIR" "", |f, o| o.out = f.path("a directory")?;
    }

    const TAKERS: &[Flag<Got>] = &[
        VALUE,
        UINT,
        POSITIVE,
        PROBABILITY,
        SCALE,
        SCHEME,
        MODEL,
        WORKLOAD,
        ENDPOINT,
    ];

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|&a| a.to_owned()).collect()
    }

    /// Parses `args` with one taker per flag and returns the error text.
    fn error(args: &[&str]) -> String {
        Flags::each(&strings(args), TAKERS, &mut Got::default())
            .expect_err("the arguments are malformed")
            .to_string()
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
        let args = strings(&[
            "--jobs", "3", "--p", "0.5", "--out", "d", "help", "--jobs", "x",
        ]);
        let mut got = Got::default();
        let flags = [JOBS, P, OUT];
        assert_eq!(Flags::each(&args, &flags, &mut got), Err(FlagError::Help));
        assert_eq!((got.jobs, got.p, &got.out), (3, 0.5, &PathBuf::from("d")));
        let args = strings(&["--jobs", "3", "--p", "0.5"]);
        assert_eq!(
            Flags::each(&args, &[JOBS], &mut got),
            Err(FlagError::Usage("unknown argument '--p'".into())),
            "a flag the list does not declare is unknown"
        );
    }

    #[test]
    fn a_workload_must_validate() {
        // The slug parses; the trace it names does not exist.
        let msg = error(&["--workload", "trace:nosuch"]);
        assert!(!msg.starts_with("unknown workload"), "{msg}");
        assert!(msg.contains("nosuch"), "{msg}");
    }
}
