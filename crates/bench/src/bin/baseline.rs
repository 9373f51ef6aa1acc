//! Writes the engine benchmark baseline (`BENCH_engine.json`).
//!
//! ```text
//! cargo run -p dbs3-bench --release --bin baseline                    # paper + scaled tiers
//! cargo run -p dbs3-bench --release --bin baseline -- --scale paper  # one tier only
//! cargo run -p dbs3-bench --release --bin baseline -- --scale scaled --smoke --gate
//! cargo run -p dbs3-bench --release --bin baseline -- --out /tmp/b.json
//! ```
//!
//! Measures the fig14 (AssocJoin, pipelined) and fig15 (IdealJoin, triggered)
//! hash-join shapes on the threaded engine at 1/4/8 threads — at the paper
//! tier and at the 32× `scaled` tier, each with derived
//! `speedup_4t`/`speedup_8t` ratios per shape — plus the multi-query shape
//! (fig14 at 1/4/16 concurrent queries on a shared 4-worker `Runtime` pool,
//! measured at every requested tier), and writes one JSON document, so perf
//! PRs have a recorded before/after: when the output file already exists,
//! its measurement is carried forward under `"reference"` (with any older
//! nested reference dropped).
//!
//! Every thread row runs on a pool of exactly that many workers
//! (`Runtime::new(n)`), so the 1-thread row is one worker and the derived
//! speedups are against a true one-worker run.
//!
//! `--smoke` substitutes the CI-sized tiers (smoke / scaled_smoke).
//! `--help` prints the usage and exits 0 without measuring or writing; an
//! unknown flag or an unparsable value exits 2.
//! `--gate` turns the run into a scaling gate: after measuring, the scaled
//! tier's fig14 shape must reach a 4-thread speedup of at least 2.0×, and
//! aggregate multi-query throughput must not collapse as concurrency rises
//! (each level keeps at least 70% of the best lower level, per tier) — or
//! the process exits non-zero. When the host offers fewer than 4 CPUs, both
//! expectations would be meaningless and the gate reports itself skipped.
//! The emitted file is re-read and sanity-checked so a truncated write fails
//! loudly (the CI smoke step relies on a non-zero exit here).

use dbs3_bench::baseline::{
    host_cpus, run_tier, to_json, without_reference, BaselineTier, BASELINE_THREADS,
};
use dbs3_bench::concurrent::{
    is_non_collapsing, run_concurrent_baseline, ConcurrentRun, CONCURRENT_QUERIES,
};
use dbs3_bench::repeat::{run_repeat_baseline, RepeatRun, REPEAT_SUBMITS};
use dbs3_bench::serve::{run_serve_baseline, ServeRun, SERVE_CLIENTS, SERVE_QUERIES_PER_CLIENT};
use dbs3_bench::ExperimentScale;

/// Minimum 4-thread speedup the scaled fig14 shape must reach under
/// `--gate`. CI runners are noisy and shared, so this sits below the
/// committed record's ratio, but with morsel scheduling a 4-thread run
/// that fails to at least halve the elapsed time means intra-fragment
/// parallelism stopped paying.
const GATE_MIN_SPEEDUP_4T: f64 = 2.0;

/// Minimum fraction of the best lower-concurrency aggregate acts/s each
/// multi-query level must keep under `--gate`. Guards the 4-query anomaly
/// (aggregate throughput at 4 concurrent queries collapsing to a quarter of
/// the 1-query figure) while tolerating bench noise.
const GATE_MIN_CONCURRENT_RATIO: f64 = 0.7;

/// Shape the gate inspects (the engine's hottest data path).
const GATE_SHAPE: &str = "fig14_assoc_join";

/// Minimum fraction of warm repeat-submit cache lookups that must hit
/// under `--gate`. The warm window repeats the exact plan the cold submit
/// just cached against an unchanged catalog, so anything below this means
/// the prepared-query cache or the fragment indexes stopped serving repeats.
const GATE_MIN_WARM_HIT_RATE: f64 = 0.9;

const USAGE: &str = "usage: baseline [--smoke] [--scale paper|scaled|both] [--gate] [--out PATH]";

/// The parsed command line.
struct Args {
    smoke: bool,
    gate: bool,
    scale: String,
    out: String,
}

/// Parses the arguments after the program name. `Ok(None)` asks for the
/// usage text; an unknown flag, a missing value or an unparsable value is
/// an error.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        smoke: false,
        gate: false,
        scale: "both".to_string(),
        out: "BENCH_engine.json".to_string(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--smoke" => parsed.smoke = true,
            "--gate" => parsed.gate = true,
            "--scale" => match args.next().map(String::as_str) {
                Some(s @ ("paper" | "scaled" | "both")) => parsed.scale = s.to_string(),
                other => return Err(format!("--scale expects paper|scaled|both, got {other:?}")),
            },
            "--out" => match args.next() {
                Some(path) if !path.starts_with("--") => parsed.out = path.clone(),
                other => return Err(format!("--out expects a path, got {other:?}")),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(parsed))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        smoke,
        gate,
        scale: scale_arg,
        out: out_path,
    } = match parse_args(&args) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let base_tier = if smoke {
        ExperimentScale::Smoke
    } else {
        ExperimentScale::Paper
    };
    let scaled_tier = if smoke {
        ExperimentScale::ScaledSmoke
    } else {
        ExperimentScale::Scaled
    };
    let scales: Vec<ExperimentScale> = match scale_arg.as_str() {
        "paper" => vec![base_tier],
        "scaled" => vec![scaled_tier],
        _ => vec![base_tier, scaled_tier],
    };

    // The previous emission (if one exists) becomes the new reference — the
    // "before" of a before/after perf record. If the existing file was
    // reformatted by hand so its reference section can no longer be
    // stripped, skip the carry-forward rather than emit a nested document.
    let reference = std::fs::read_to_string(&out_path)
        .ok()
        .filter(|doc| doc.contains("\"runs\""))
        .map(|doc| without_reference(&doc))
        .filter(|doc| !doc.contains("\"reference\""));

    // The multi-query section is measured per requested tier: the base tier
    // tracks pool scheduling cost, the 32× tier shows whether the shape
    // survives when each query carries real join work. It runs *before*
    // the single-query tier sweeps: the 32× tier churns gigabytes through
    // the process allocator, and the short paper-tier concurrent runs
    // measurably slow down when they inherit that heap state.
    let mut concurrent: Vec<ConcurrentRun> = Vec::new();
    for &scale in &scales {
        eprintln!(
            "# measuring multi-query baseline ({} tier, shared pool, queries {CONCURRENT_QUERIES:?})...",
            scale.name()
        );
        let runs = run_concurrent_baseline(scale, 3);
        for c in &runs {
            eprintln!(
                "#   {:<18} scale={} pool={} queries={:<2} elapsed={:.4}s aggregate acts/s={:.0}",
                c.workload,
                c.scale,
                c.pool_threads,
                c.queries,
                c.elapsed_s,
                c.aggregate_activations_per_second
            );
        }
        concurrent.extend(runs);
    }

    // The serving tier: closed-loop clients through the dbs3-serve TCP
    // front door, measured at the base tier only (the serve layer's own
    // overhead — framing, session threads, admission — does not change
    // with tuple volume, and the 32× tier would just re-measure the join).
    eprintln!(
        "# measuring serve baseline ({} tier, clients {SERVE_CLIENTS:?}, \
         {SERVE_QUERIES_PER_CLIENT} queries/client)...",
        base_tier.name()
    );
    let serve: Vec<ServeRun> =
        run_serve_baseline(base_tier, &SERVE_CLIENTS, SERVE_QUERIES_PER_CLIENT);
    for s in &serve {
        eprintln!(
            "#   serve scale={} clients={:<2} ok={}/{} shed={} proto_errs={} \
             q/s={:.1} p50={:.2}ms p95={:.2}ms p99={:.2}ms",
            s.scale,
            s.clients,
            s.ok,
            s.requests,
            s.shed_requests,
            s.protocol_errors,
            s.queries_per_second,
            s.p50_ms,
            s.p95_ms,
            s.p99_ms
        );
    }

    // The repeated-submit tier: N sequential submits of one plan shape on a
    // shared pool, cold-vs-warm, with the prepared-plan and fragment-index
    // counters split per window. Each tier generates its own relations, so
    // its indexes start unbuilt and are freed with the tier's session.
    let mut repeat: Vec<RepeatRun> = Vec::new();
    for &scale in &scales {
        eprintln!(
            "# measuring repeated-submit baseline ({} tier, {REPEAT_SUBMITS} submits)...",
            scale.name()
        );
        let r = run_repeat_baseline(scale);
        eprintln!(
            "#   {:<28} scale={} cold={:.4}s warm_avg={:.4}s speedup={:.1}x \
             warm hits plan={}/idx={} misses plan={}/idx={} hit_rate={:.3}",
            r.workload,
            r.scale,
            r.cold_s,
            r.warm_avg_s,
            r.warm_speedup,
            r.warm_plan_hits,
            r.warm_index_hits,
            r.warm_plan_misses,
            r.warm_index_misses,
            r.warm_hit_rate
        );
        repeat.push(r);
    }

    let mut tiers: Vec<BaselineTier> = Vec::new();
    for &scale in &scales {
        eprintln!(
            "# measuring engine baseline ({} tier, threads {BASELINE_THREADS:?}, host_cpus {})...",
            scale.name(),
            host_cpus()
        );
        let tier = run_tier(scale);
        for r in &tier.runs {
            eprintln!(
                "#   {:<18} threads={} elapsed={:.4}s tuples/s={:.0}",
                r.shape, r.threads, r.elapsed_s, r.tuples_per_second
            );
        }
        for s in &tier.speedups {
            eprintln!(
                "#   {:<18} speedup_4t={:.2} speedup_8t={:.2}",
                s.shape, s.speedup_4t, s.speedup_8t
            );
        }
        tiers.push(tier);
    }

    let json = to_json(&tiers, &concurrent, &repeat, &serve, reference.as_deref());
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    });

    // Fail loudly on a truncated or malformed emission. (CI additionally
    // parses the file with a real JSON parser.)
    let written = std::fs::read_to_string(&out_path).unwrap_or_default();
    let expected_runs = scales.len() * 2 * BASELINE_THREADS.len();
    if !written.contains("\"tiers\"")
        || written.matches("\"shape\"").count() < expected_runs
        || written.matches('{').count() != written.matches('}').count()
        || written.matches('[').count() != written.matches(']').count()
        || !written.trim_end().ends_with('}')
    {
        eprintln!("error: {out_path} is malformed");
        std::process::exit(1);
    }
    if written.matches("\"clients\"").count() < serve.len() {
        eprintln!("error: {out_path} is missing serve-tier rows");
        std::process::exit(1);
    }
    if written.matches("\"warm_hit_rate\"").count() < repeat.len() {
        eprintln!("error: {out_path} is missing repeat-tier rows");
        std::process::exit(1);
    }
    eprintln!(
        "# wrote {out_path} ({} tiers, {expected_runs} runs, {} concurrency levels, \
         {} repeat tiers, {} serve levels)",
        tiers.len(),
        concurrent.len(),
        repeat.len(),
        serve.len()
    );

    if gate {
        run_gate(&tiers, scaled_tier, &concurrent, &repeat);
    }
}

/// The CI scaling gate: on a host with at least 4 CPUs, the scaled-tier
/// fig14 shape must reach `GATE_MIN_SPEEDUP_4T` at 4 threads, the
/// multi-query aggregate throughput must be non-collapsing across
/// concurrency levels at every measured tier, and the warm window of every
/// repeat tier must be served by the query-setup caches
/// (`GATE_MIN_WARM_HIT_RATE`).
fn run_gate(
    tiers: &[BaselineTier],
    scaled_tier: ExperimentScale,
    concurrent: &[ConcurrentRun],
    repeat: &[RepeatRun],
) {
    // The hit-rate expectation is deterministic (no parallelism involved),
    // so it gates even on a 1-CPU host, before the speedup checks below
    // may skip.
    for r in repeat {
        if r.warm_hit_rate < GATE_MIN_WARM_HIT_RATE {
            eprintln!(
                "error: gate FAILED — {} tier warm repeat-submit hit rate {:.3} < \
                 {GATE_MIN_WARM_HIT_RATE} (plan {}h/{}m, index {}h/{}m): repeated \
                 query setup is not being served by the caches",
                r.scale,
                r.warm_hit_rate,
                r.warm_plan_hits,
                r.warm_plan_misses,
                r.warm_index_hits,
                r.warm_index_misses
            );
            std::process::exit(1);
        }
    }
    if repeat.is_empty() {
        eprintln!("error: gate requested but no repeat tiers were measured");
        std::process::exit(1);
    }
    let cpus = host_cpus();
    if cpus < 4 {
        eprintln!(
            "# gate: SKIPPED — host offers {cpus} CPU(s); a 4-thread speedup \
             expectation needs at least 4"
        );
        return;
    }
    let Some(tier) = tiers.iter().find(|t| t.scale == scaled_tier) else {
        eprintln!("error: gate requested but the scaled tier was not measured");
        std::process::exit(1);
    };
    let Some(row) = tier.speedups.iter().find(|s| s.shape == GATE_SHAPE) else {
        eprintln!("error: gate shape {GATE_SHAPE} missing from the scaled tier");
        std::process::exit(1);
    };
    if row.speedup_4t < GATE_MIN_SPEEDUP_4T {
        eprintln!(
            "error: gate FAILED — {GATE_SHAPE} 4-thread speedup {:.2} < {GATE_MIN_SPEEDUP_4T} \
             on a {cpus}-CPU host (parallelism stopped paying)",
            row.speedup_4t
        );
        std::process::exit(1);
    }
    if concurrent.is_empty() {
        eprintln!("error: gate requested but no multi-query levels were measured");
        std::process::exit(1);
    }
    if !is_non_collapsing(concurrent, GATE_MIN_CONCURRENT_RATIO) {
        let shape: Vec<String> = concurrent
            .iter()
            .map(|c| {
                format!(
                    "{}/{}q={:.0}",
                    c.scale, c.queries, c.aggregate_activations_per_second
                )
            })
            .collect();
        eprintln!(
            "error: gate FAILED — aggregate multi-query throughput collapses as \
             concurrency rises (some level fell below {GATE_MIN_CONCURRENT_RATIO} of the \
             best lower level): {}",
            shape.join(", ")
        );
        std::process::exit(1);
    }
    eprintln!(
        "# gate: OK — {GATE_SHAPE} speedup_4t={:.2} (>= {GATE_MIN_SPEEDUP_4T}), multi-query \
         aggregate non-collapsing over {} levels (ratio >= {GATE_MIN_CONCURRENT_RATIO}, \
         host_cpus={cpus})",
        row.speedup_4t,
        concurrent.len()
    );
}
