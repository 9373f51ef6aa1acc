//! Command-line parsing: every flag is required once, values must parse,
//! anything unknown is an error, and `--help` measures nothing.

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm prepared AssocJoin in a single-client closed loop.
    AssocJoinWarm,
    /// Skewed IdealJoin with a reload of `A` before every query.
    SkewChurn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::AssocJoinWarm, Workload::SkewChurn];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AssocJoinWarm => "assoc_join_warm",
            Workload::SkewChurn => "skew_churn",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Longest measured window one run accepts, in seconds.
pub const MAX_SECONDS: u64 = 60;

/// A validated benchmark run request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics) or the plain run
    /// (end-to-end metrics).
    pub trace: bool,
}

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Print usage and exit.
    Help,
    /// Run one workload.
    Run(RunArgs),
}

/// Usage text printed by `--help` and after a rejected command line.
pub const USAGE: &str = "\
usage: perfbench --workload <name> --seed <u64> --seconds <1-60> --trace <0|1>

Runs one DBS3 benchmark workload in this process and prints one metric per
line, then a final JSON line {\"correct\", \"attempted\", \"failed\", \"metrics\"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
and writes the recorded spans under .bench_out/.

workloads: assoc_join_warm, skew_churn
exit codes: 0 measured and correct, 1 wrong answers or a failed run,
            2 rejected command line
";

/// Parses the arguments after the program name.
pub fn parse<I>(args: I) -> Result<Command, String>
where
    I: IntoIterator<Item = String>,
{
    let args: Vec<String> = args.into_iter().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let slot_name = flag.as_str();
        if !matches!(slot_name, "--workload" | "--seed" | "--seconds" | "--trace") {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let duplicate = match slot_name {
            "--workload" => workload
                .replace(Workload::from_name(&value).ok_or_else(|| {
                    format!("unknown workload `{value}` (expected assoc_join_warm or skew_churn)")
                })?)
                .is_some(),
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("`--seed {value}` is not an unsigned integer"))?,
                )
                .is_some(),
            "--seconds" => {
                let parsed = value
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=MAX_SECONDS).contains(s))
                    .ok_or_else(|| {
                        format!("`--seconds {value}` is not a whole number from 1 to {MAX_SECONDS}")
                    })?;
                seconds.replace(parsed).is_some()
            }
            _ => {
                let parsed = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace {value}` must be 0 or 1")),
                };
                trace.replace(parsed).is_some()
            }
        };
        if duplicate {
            return Err(format!("`{flag}` given more than once"));
        }
    }
    let missing = |name: &str| format!("missing required `{name}`");
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    }))
}
