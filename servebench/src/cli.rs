//! Strict command-line parsing.
//!
//! Every flag is required exactly once and must carry a value; unknown
//! flags, stray positional words, repeated flags and malformed values are
//! errors. A benchmark that silently ignored a misspelt flag would measure
//! something other than what its caller asked for.

use std::fmt;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Shelf sweeps of a library cart: large `Localize` requests.
    LibraryShelf,
    /// Six-bag airport portal batches: small `Localize` requests.
    AirportPortal,
    /// A 200-bag belt streamed into server-side sessions.
    ConveyorStream,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::LibraryShelf, Workload::AirportPortal, Workload::ConveyorStream];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LibraryShelf => "library_shelf",
            Workload::AirportPortal => "airport_portal",
            Workload::ConveyorStream => "conveyor_stream",
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: u64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer run.
    pub trace: bool,
}

/// Longest measured phase accepted; a run must end within three minutes.
pub const MAX_SECONDS: u64 = 120;

/// The usage line printed with every parse error.
pub const USAGE: &str =
    "usage: servebench --workload <library_shelf|airport_portal|conveyor_stream> \
                         --seed <u64> --seconds <1..=120> --trace <0|1>";

/// A command-line error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n{USAGE}", self.0)
    }
}

/// Parses the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, ArgError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(ArgError(format!("unknown argument `{other}`"))),
        };
        if slot.is_some() {
            return Err(ArgError(format!("`{flag}` given more than once")));
        }
        match args.next() {
            Some(value) if !value.starts_with("--") => *slot = Some(value),
            _ => return Err(ArgError(format!("`{flag}` needs a value"))),
        }
    }
    let required = |slot: Option<String>, flag: &str| {
        slot.ok_or_else(|| ArgError(format!("missing required `{flag}`")))
    };
    let workload = required(workload, "--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| ArgError(format!("unknown workload `{workload}`")))?;
    let seed = required(seed, "--seed")?;
    let seed = seed.parse::<u64>().map_err(|_| ArgError(format!("bad seed `{seed}`")))?;
    let seconds = required(seconds, "--seconds")?;
    let seconds = seconds
        .parse::<u64>()
        .ok()
        .filter(|s| (1..=MAX_SECONDS).contains(s))
        .ok_or_else(|| ArgError(format!("bad seconds `{seconds}`")))?;
    let trace = match required(trace, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(ArgError(format!("bad trace `{other}` (expected 0 or 1)"))),
    };
    Ok(Args { workload, seed, seconds, trace })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, ArgError> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn accepts_every_flag_in_any_order() {
        let args = parse_str("--trace 1 --seconds 10 --seed 7 --workload conveyor_stream")
            .expect("valid command line");
        assert_eq!(
            args,
            Args { workload: Workload::ConveyorStream, seed: 7, seconds: 10, trace: true }
        );
        for workload in Workload::ALL {
            let line = format!("--workload {} --seed 0 --seconds 1 --trace 0", workload.name());
            assert_eq!(parse_str(&line).expect("valid").workload, workload);
        }
    }

    #[test]
    fn rejects_unknown_and_positional_arguments() {
        for line in [
            "--workload airport_portal --seed 1 --seconds 5 --trace 0 --verbose",
            "--workload airport_portal --seed 1 --seconds 5 --trace 0 extra",
            "report.json --workload airport_portal --seed 1 --seconds 5 --trace 0",
            "--workload airport_portal --seed=1 --seconds 5 --trace 0",
        ] {
            assert!(parse_str(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn rejects_missing_flags_and_values() {
        for line in [
            "",
            "--seed 1 --seconds 5 --trace 0",
            "--workload airport_portal --seconds 5 --trace 0",
            "--workload airport_portal --seed 1 --trace 0",
            "--workload airport_portal --seed 1 --seconds 5",
            "--workload airport_portal --seed 1 --seconds 5 --trace",
            "--workload --seed 1 --seconds 5 --trace 0",
        ] {
            assert!(parse_str(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn rejects_repeated_flags_and_bad_values() {
        for line in [
            "--workload airport_portal --workload library_shelf --seed 1 --seconds 5 --trace 0",
            "--workload airport --seed 1 --seconds 5 --trace 0",
            "--workload airport_portal --seed -1 --seconds 5 --trace 0",
            "--workload airport_portal --seed x --seconds 5 --trace 0",
            "--workload airport_portal --seed 1 --seconds 0 --trace 0",
            "--workload airport_portal --seed 1 --seconds 121 --trace 0",
            "--workload airport_portal --seed 1 --seconds 2.5 --trace 0",
            "--workload airport_portal --seed 1 --seconds 5 --trace 2",
        ] {
            assert!(parse_str(line).is_err(), "accepted: {line}");
        }
    }
}
