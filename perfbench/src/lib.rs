//! The DBS3 repository benchmark: two workloads driven through the
//! public APIs of `dbs3`, `dbs3_storage`, `dbs3_engine` and `dbs3_serve`,
//! reporting end-to-end metrics from an untraced run and per-layer metrics
//! from a separate traced run. See `README.md` in this directory for the
//! design.

pub mod cli;
pub mod data;
pub mod host;
pub mod inproc;
pub mod layers;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod served;
pub mod stats;
pub mod trace;

use cli::RunArgs;
use host::Host;
use report::Report;
use trace::{SpanSummary, Tracer};

/// Error type of a failed run.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Directory, relative to the working directory, the traced run writes
/// its spans to.
pub const SPAN_DIR: &str = ".bench_out";

/// Runs one workload and returns its report, with the host and seed
/// recorded in its notes.
pub fn run(args: &RunArgs) -> Result<Report, BoxError> {
    let host = Host::detect();
    let tracer = args.trace.then(Tracer::new);
    let header = format!(
        "workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.cpu_model,
        host.rustc,
        host.commit
    );
    let mut report = inproc::run(args, host.nproc, tracer.as_ref())?;
    report.notes.insert(0, header.clone());
    if let Some(tracer) = tracer {
        let path = std::path::Path::new(SPAN_DIR).join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
        std::fs::create_dir_all(SPAN_DIR)?;
        let spans = SpanSummary::new(tracer.spans());
        std::fs::write(&path, spans.to_jsonl(&format!("# {header}")))?;
        report
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(report)
}
