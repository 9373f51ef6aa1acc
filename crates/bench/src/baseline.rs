//! Benchmark-baseline emitter: the perf trajectory of the repository.
//!
//! Every perf-oriented PR needs a number to beat. This module runs the two
//! join shapes of the paper's speed-up experiments — the AssocJoin of
//! Figure 14 (transmit → pipelined join, the engine's hottest data path) and
//! the IdealJoin of Figure 15 (co-partitioned triggered join) — on the *real
//! threaded engine* at 1/4/8 threads and serialises elapsed time and
//! throughput to `BENCH_engine.json`, so future PRs can diff performance
//! against the committed baseline (`cargo run -p dbs3-bench --release --bin
//! baseline`).
//!
//! The hash-join variant is measured (not the paper's nested loop) because it
//! makes per-tuple *engine* overhead — routing, queue locking, activation
//! dispatch — the dominant cost, which is exactly what the baseline is meant
//! to track; algorithmic join cost would only dilute the signal.
//!
//! Since the scaled-tier work (`ExperimentScale::Scaled`, 32× the paper's
//! cardinalities) the document is **tiered**: each tier carries its runs
//! plus derived `speedup_4t`/`speedup_8t` ratios per shape (throughput at
//! 4/8 threads over 1 thread), and the top level records `host_cpus` — a
//! speedup measured on a 1-core container is honestly a flat line, and the
//! record must say so.

use crate::{ExperimentScale, JoinDatabase};
use dbs3::{Runtime, Session};
use dbs3_lera::{plans, JoinAlgorithm, Plan};

/// Thread counts every baseline shape is measured at.
pub const BASELINE_THREADS: [usize; 3] = [1, 4, 8];

/// Measurement repetitions per configuration (the best run is recorded, which
/// is the conventional way to suppress scheduling noise in short benches).
const REPETITIONS: usize = 3;

/// One measured configuration of the baseline.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Shape identifier (`fig14_assoc_join` or `fig15_ideal_join`).
    pub shape: &'static str,
    /// Worker threads of the pool (and the scheduler's thread budget).
    pub threads: usize,
    /// Best-of-N wall-clock execution time in seconds.
    pub elapsed_s: f64,
    /// Cardinality of the materialised join result.
    pub result_tuples: usize,
    /// Logical activations consumed across all operations.
    pub logical_activations: u64,
    /// Logical activations per second ([`dbs3::QueryOutcome::tuples_per_second`]).
    pub tuples_per_second: f64,
}

/// The two measured shapes: (identifier, plan).
fn shapes() -> [(&'static str, Plan); 2] {
    [
        (
            "fig14_assoc_join",
            plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
        ),
        (
            "fig15_ideal_join",
            plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash),
        ),
    ]
}

/// Runs every baseline configuration at `scale` and returns the rows in
/// deterministic (shape, threads) order.
pub fn run_baseline(scale: ExperimentScale) -> Vec<BaselineRun> {
    let db = JoinDatabase::generate(scale.cardinality(200_000), scale.cardinality(20_000));
    let session = db.session(scale.degree(200), 0.0);
    let mut runs = Vec::new();
    for (shape, plan) in shapes() {
        for &threads in &BASELINE_THREADS {
            runs.push(measure(&session, &plan, shape, threads));
        }
    }
    runs
}

/// Derived multicore speedup of one shape: throughput at 4 and 8 threads
/// over the 1-thread run of the same tier.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Shape identifier the ratios belong to.
    pub shape: &'static str,
    /// `tuples_per_second(4 threads) / tuples_per_second(1 thread)`.
    pub speedup_4t: f64,
    /// `tuples_per_second(8 threads) / tuples_per_second(1 thread)`.
    pub speedup_8t: f64,
}

/// One measured tier of the baseline document.
#[derive(Debug, Clone)]
pub struct BaselineTier {
    /// The tier's scale.
    pub scale: ExperimentScale,
    /// Measured rows in (shape, threads) order.
    pub runs: Vec<BaselineRun>,
    /// Per-shape speedup ratios derived from `runs`.
    pub speedups: Vec<SpeedupRow>,
}

/// Derives the per-shape speedup rows from a tier's measured runs.
pub fn speedups_of(runs: &[BaselineRun]) -> Vec<SpeedupRow> {
    let tps = |shape: &str, threads: usize| {
        runs.iter()
            .find(|r| r.shape == shape && r.threads == threads)
            .map(|r| r.tuples_per_second)
    };
    let mut shapes: Vec<&'static str> = Vec::new();
    for r in runs {
        if !shapes.contains(&r.shape) {
            shapes.push(r.shape);
        }
    }
    shapes
        .into_iter()
        .filter_map(|shape| {
            let base = tps(shape, 1)?;
            if base <= 0.0 {
                return None;
            }
            Some(SpeedupRow {
                shape,
                speedup_4t: tps(shape, 4).map_or(0.0, |t| t / base),
                speedup_8t: tps(shape, 8).map_or(0.0, |t| t / base),
            })
        })
        .collect()
}

/// Measures one tier and bundles the derived speedups with it.
pub fn run_tier(scale: ExperimentScale) -> BaselineTier {
    let runs = run_baseline(scale);
    let speedups = speedups_of(&runs);
    BaselineTier {
        scale,
        runs,
        speedups,
    }
}

/// Parallelism the measuring host actually offers (1 when unknown). A
/// speedup row is only meaningful relative to this.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Measures one (plan, threads) configuration on a pool of exactly
/// `threads` workers, keeping the best repetition. Results are discarded
/// (counting stores): the baseline tracks engine overhead, and
/// materialising a 20K-tuple `Vec` per run would only add allocator noise
/// to the signal.
fn measure(session: &Session, plan: &Plan, shape: &'static str, threads: usize) -> BaselineRun {
    let runtime = Runtime::new(threads).expect("baseline thread counts are positive");
    let mut best: Option<BaselineRun> = None;
    for _ in 0..REPETITIONS {
        let outcome = session
            .query(plan)
            .threads(threads)
            .discard_results()
            .submit(&runtime)
            .and_then(|handle| handle.wait())
            .expect("baseline plans execute on any thread count");
        let run = BaselineRun {
            shape,
            threads,
            elapsed_s: outcome.elapsed().as_secs_f64(),
            result_tuples: outcome.result_cardinality("Result").unwrap_or(0),
            logical_activations: outcome.metrics.total_activations(),
            tuples_per_second: outcome.tuples_per_second(),
        };
        if best.as_ref().is_none_or(|b| run.elapsed_s < b.elapsed_s) {
            best = Some(run);
        }
    }
    best.expect("at least one repetition ran")
}

/// Strips the trailing `"reference"` section (if any) from a document this
/// module emitted, returning a self-contained baseline document.
///
/// Used when regenerating `BENCH_engine.json` in place: the previous
/// emission becomes the new file's `reference` (the before/after record of a
/// perf PR), but its *own* nested reference is dropped so the file never
/// grows a chain of historical baselines — git history holds those.
pub fn without_reference(doc: &str) -> String {
    match doc.find(",\n  \"reference\":") {
        Some(i) => format!("{}\n}}\n", &doc[..i]),
        None => doc.to_string(),
    }
}

/// Serialises baseline tiers as the `BENCH_engine.json` document
/// (schema version 4).
///
/// The format is intentionally flat so future PRs can diff it textually:
/// one object per tier under `"tiers"` — each holding one object per
/// configuration under `"runs"` and per-shape `speedup_4t`/`speedup_8t`
/// rows under `"speedups"` — one object per concurrency level under
/// `"concurrent"` (the multi-query throughput shape of the shared
/// [`dbs3::Runtime`] pool), one object per tier under `"repeat"` (the
/// repeated-submit shape of the prepared-query cache and fragment indexes,
/// with cold/warm latencies and warm hit/miss counts per cache), one object
/// per client count under `"serve"` (closed-loop latency percentiles
/// through the `dbs3-serve` network front door, with `shed_requests`
/// recorded explicitly — zero means *measured* zero), and the measuring
/// host's parallelism under `"host_cpus"` (a flat speedup curve on a 1-core
/// host is expected, not a regression). `reference` optionally carries the
/// previous baseline forward (the before/after record of a perf PR).
pub fn to_json(
    tiers: &[BaselineTier],
    concurrent: &[crate::concurrent::ConcurrentRun],
    repeat: &[crate::repeat::RepeatRun],
    serve: &[crate::serve::ServeRun],
    reference: Option<&str>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema_version\": 4,\n");
    out.push_str(
        "  \"bench\": \"dbs3 engine baseline (threaded backend, hash join); \
         tuples_per_second counts logical activations across all pipeline \
         hops per second of execution\",\n",
    );
    out.push_str(&format!("  \"host_cpus\": {},\n", host_cpus()));
    out.push_str("  \"tiers\": [\n");
    for (t, tier) in tiers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scale\": \"{}\", \"runs\": [\n",
            tier.scale.name()
        ));
        for (i, r) in tier.runs.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"shape\": \"{}\", \"threads\": {}, \"elapsed_s\": {:.6}, \
                 \"result_tuples\": {}, \"logical_activations\": {}, \
                 \"tuples_per_second\": {:.1}}}{}\n",
                r.shape,
                r.threads,
                r.elapsed_s,
                r.result_tuples,
                r.logical_activations,
                r.tuples_per_second,
                if i + 1 < tier.runs.len() { "," } else { "" },
            ));
        }
        out.push_str("    ], \"speedups\": [\n");
        for (i, s) in tier.speedups.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"shape\": \"{}\", \"speedup_4t\": {:.3}, \"speedup_8t\": {:.3}}}{}\n",
                s.shape,
                s.speedup_4t,
                s.speedup_8t,
                if i + 1 < tier.speedups.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if t + 1 < tiers.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    if !concurrent.is_empty() {
        out.push_str(",\n  \"concurrent\": [\n");
        for (i, c) in concurrent.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"scale\": \"{}\", \"pool_threads\": {}, \
                 \"queries\": {}, \
                 \"elapsed_s\": {:.6}, \"total_logical_activations\": {}, \
                 \"aggregate_activations_per_second\": {:.1}}}{}\n",
                c.workload,
                c.scale,
                c.pool_threads,
                c.queries,
                c.elapsed_s,
                c.total_logical_activations,
                c.aggregate_activations_per_second,
                if i + 1 < concurrent.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]");
    }
    if !repeat.is_empty() {
        out.push_str(",\n  \"repeat\": [\n");
        for (i, r) in repeat.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&r.to_json_row());
            out.push_str(if i + 1 < repeat.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]");
    }
    if !serve.is_empty() {
        out.push_str(",\n  \"serve\": [\n");
        for (i, s) in serve.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&s.to_json_row());
            out.push_str(if i + 1 < serve.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]");
    }
    if let Some(reference) = reference {
        out.push_str(",\n  \"reference\": ");
        out.push_str(reference.trim_end());
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(shape: &'static str, threads: usize, tps: f64) -> BaselineRun {
        BaselineRun {
            shape,
            threads,
            elapsed_s: 0.25,
            result_tuples: 1_000,
            logical_activations: 2_020,
            tuples_per_second: tps,
        }
    }

    fn sample_tier(scale: ExperimentScale) -> BaselineTier {
        let runs = vec![
            run("fig14_assoc_join", 1, 8_080.0),
            run("fig14_assoc_join", 4, 24_240.0),
            run("fig14_assoc_join", 8, 32_320.0),
            run("fig15_ideal_join", 1, 8_160.0),
            run("fig15_ideal_join", 8, 16_320.0),
        ];
        let speedups = speedups_of(&runs);
        BaselineTier {
            scale,
            runs,
            speedups,
        }
    }

    #[test]
    fn speedups_are_ratios_over_the_one_thread_run() {
        let tier = sample_tier(ExperimentScale::Paper);
        assert_eq!(tier.speedups.len(), 2);
        let fig14 = &tier.speedups[0];
        assert_eq!(fig14.shape, "fig14_assoc_join");
        assert!((fig14.speedup_4t - 3.0).abs() < 1e-9);
        assert!((fig14.speedup_8t - 4.0).abs() < 1e-9);
        // A shape with no 4-thread run reports 0.0 rather than inventing one.
        let fig15 = &tier.speedups[1];
        assert_eq!(fig15.speedup_4t, 0.0);
        assert!((fig15.speedup_8t - 2.0).abs() < 1e-9);
    }

    #[test]
    fn json_has_one_object_per_run_and_balanced_braces() {
        let tiers = [
            sample_tier(ExperimentScale::Smoke),
            sample_tier(ExperimentScale::ScaledSmoke),
        ];
        let json = to_json(&tiers, &[], &[], &[], None);
        // One "shape" per run object plus one per speedup row, per tier.
        assert_eq!(json.matches("\"shape\"").count(), 2 * (5 + 2));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"scale\": \"smoke\""));
        assert!(json.contains("\"scale\": \"scaled_smoke\""));
        assert!(json.contains("\"host_cpus\": "));
        assert!(json.contains("\"speedup_4t\": 3.000"));
        assert!(json.contains("\"speedup_8t\": 4.000"));
        assert!(json.contains("\"tuples_per_second\": 8080.0"));
        assert!(!json.contains("reference"));
    }

    #[test]
    fn json_embeds_reference_document() {
        let tiers = [sample_tier(ExperimentScale::Paper)];
        let previous = to_json(&tiers, &[], &[], &[], None);
        let json = to_json(&tiers, &[], &[], &[], Some(&previous));
        assert!(json.contains("\"reference\": {"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"schema_version\"").count(), 2);
    }

    #[test]
    fn without_reference_round_trips() {
        let tiers = [sample_tier(ExperimentScale::Paper)];
        let bare = to_json(&tiers, &[], &[], &[], None);
        // A document without a reference passes through untouched.
        assert_eq!(without_reference(&bare), bare);
        // Regenerating drops exactly the old nested reference, so chaining
        // emissions never accumulates history.
        let older = to_json(&tiers[..1], &[], &[], &[], None);
        let with_ref = to_json(&tiers, &[], &[], &[], Some(&older));
        assert_eq!(without_reference(&with_ref), bare);
        let chained = to_json(&tiers, &[], &[], &[], Some(&without_reference(&with_ref)));
        assert_eq!(chained.matches("\"schema_version\"").count(), 2);
        assert_eq!(chained.matches('{').count(), chained.matches('}').count());
    }

    #[test]
    fn json_includes_concurrent_section_and_reference_stripping_survives_it() {
        let concurrent = vec![crate::concurrent::ConcurrentRun {
            workload: "fig14_assoc_join",
            scale: "paper",
            pool_threads: 4,
            queries: 16,
            elapsed_s: 0.5,
            total_logical_activations: 643_200,
            aggregate_activations_per_second: 1_286_400.0,
            cardinalities: vec![20_000; 16],
        }];
        let tiers = [sample_tier(ExperimentScale::Paper)];
        let json = to_json(&tiers, &concurrent, &[], &[], None);
        assert!(json.contains("\"concurrent\": ["));
        assert!(json.contains("\"scale\": \"paper\""));
        assert!(json.contains("\"queries\": 16"));
        assert!(json.contains("\"aggregate_activations_per_second\": 1286400.0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let with_ref = to_json(&tiers, &concurrent, &[], &[], Some(&json));
        assert_eq!(without_reference(&with_ref), json);
    }

    #[test]
    fn json_includes_repeat_section_with_cache_counts() {
        let repeat = vec![crate::repeat::RepeatRun {
            workload: "fig14_assoc_join_small_probe",
            scale: "paper",
            pool_threads: 4,
            submits: 16,
            cold_s: 0.125,
            warm_avg_s: 0.0125,
            warm_best_s: 0.01,
            warm_speedup: 10.0,
            warm_plan_hits: 15,
            warm_plan_misses: 0,
            warm_index_hits: 120,
            warm_index_misses: 0,
            warm_hit_rate: 1.0,
            cardinalities: vec![2_000; 16],
        }];
        let tiers = [sample_tier(ExperimentScale::Paper)];
        let json = to_json(&tiers, &[], &repeat, &[], None);
        assert!(json.contains("\"repeat\": ["));
        assert!(json.contains("\"submits\": 16"));
        assert!(json.contains("\"warm_speedup\": 10.00"));
        // Cache counts are explicit per cache: a zero miss count is a
        // measurement, not an omission.
        assert!(json.contains("\"warm_plan_misses\": 0"));
        assert!(json.contains("\"warm_index_hits\": 120"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let with_ref = to_json(&tiers, &[], &repeat, &[], Some(&json));
        assert_eq!(without_reference(&with_ref), json);
    }

    #[test]
    fn json_includes_serve_section_with_explicit_shed_counts() {
        let serve = vec![crate::serve::ServeRun {
            scale: "paper",
            clients: 64,
            queries_per_client: 8,
            requests: 512,
            ok: 512,
            shed_requests: 0,
            retried: 3,
            deadline_exceeded: 0,
            gave_up: 0,
            protocol_errors: 0,
            elapsed_s: 3.2,
            queries_per_second: 160.0,
            p50_ms: 11.5,
            p95_ms: 42.25,
            p99_ms: 55.125,
            workers: 8,
            max_inflight: 128,
        }];
        let tiers = [sample_tier(ExperimentScale::Paper)];
        let json = to_json(&tiers, &[], &[], &serve, None);
        assert!(json.contains("\"serve\": ["));
        assert!(json.contains("\"clients\": 64"));
        // Robustness counts are explicit: zero is a measurement, not an
        // omission, and retries are recorded even when every request succeeds.
        assert!(json.contains("\"shed_requests\": 0"));
        assert!(json.contains("\"retried\": 3"));
        assert!(json.contains("\"deadline_exceeded\": 0"));
        assert!(json.contains("\"gave_up\": 0"));
        assert!(json.contains("\"p50_ms\": 11.500"));
        assert!(json.contains("\"p95_ms\": 42.250"));
        assert!(json.contains("\"p99_ms\": 55.125"));
        assert!(json.contains("\"queries_per_second\": 160.00"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Reference stripping is unaffected by the new trailing section.
        let with_ref = to_json(&tiers, &[], &[], &serve, Some(&json));
        assert_eq!(without_reference(&with_ref), json);
    }

    #[test]
    fn smoke_baseline_measures_every_configuration() {
        let tier = run_tier(ExperimentScale::Smoke);
        assert_eq!(tier.runs.len(), 2 * BASELINE_THREADS.len());
        for r in &tier.runs {
            assert!(r.elapsed_s > 0.0, "{:?}", r);
            assert!(r.tuples_per_second > 0.0, "{:?}", r);
            // Both shapes join the full Bprime against A on the unique key.
            assert_eq!(r.result_tuples, 1_000);
        }
        // Every measured shape gets a speedup row with positive ratios.
        assert_eq!(tier.speedups.len(), 2);
        for s in &tier.speedups {
            assert!(s.speedup_4t > 0.0 && s.speedup_8t > 0.0, "{:?}", s);
        }
    }
}
