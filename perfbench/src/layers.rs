//! Per-layer metrics of a traced run, derived from the per-query metrics
//! the engine returns, the replayed layer costs and the recorded spans.

use crate::data;
use crate::inproc::{closed_loop, InProc, OpSample, Sample, Window, MEDIAN_SAMPLES};
use crate::replay::LayerCosts;
use crate::report::{OPERATIONS, SELF_TIME_LAYERS};
use crate::stats::{self, min_samples};
use crate::trace::{SpanSummary, Tracer};
use crate::BoxError;
use dbs3::engine::CacheStats;
use dbs3::prelude::*;
use std::collections::BTreeMap;
use std::result::Result;

/// A per-operation metric name and how to read it off one sample.
type OpField = (&'static str, fn(&OpSample) -> f64);

/// `cache.*`: hit rates (1 when the window made no lookups, since nothing
/// missed), index builds per query and evictions over the window.
pub fn cache_values(values: &mut BTreeMap<String, f64>, cache: &CacheStats, queries: usize) {
    let rate = |c: &dbs3::CacheCounters| {
        if c.hits + c.misses == 0 {
            1.0
        } else {
            c.hit_rate()
        }
    };
    values.insert("cache.plan_hit_rate".into(), rate(&cache.plan));
    values.insert("cache.index_hit_rate".into(), rate(&cache.index));
    values.insert(
        "cache.index_builds_per_query".into(),
        cache.index.misses as f64 / queries.max(1) as f64,
    );
    values.insert(
        "cache.evictions".into(),
        (cache.plan.evictions + cache.index.evictions) as f64,
    );
}

/// `engine.exec_ms`/`overhead_ms`, `op.*`, `runtime.utilisation` and
/// `ledger.explained_frac` from the per-query metrics of a window.
/// `builds_per_query` is the index builds each query paid for.
pub fn engine_values(
    values: &mut BTreeMap<String, f64>,
    window: &Window,
    costs: &LayerCosts,
    sizes: data::Sizes,
    workers: usize,
    builds_per_query: f64,
) {
    let samples: Vec<&Sample> = window.samples.iter().filter(|s| s.correct).collect();
    let n = samples.len().max(1) as f64;
    let exec: Vec<f64> = samples.iter().map(|s| s.exec_ms).collect();
    let overhead: Vec<f64> = samples.iter().map(|s| s.engine_ms - s.exec_ms).collect();
    for (name, value) in [
        ("exec_ms", stats::median(&exec)),
        ("overhead_ms", stats::median(&overhead)),
    ] {
        values.insert(format!("engine.{name}"), value);
    }

    let of_kind = |kind: &'static str| {
        samples
            .iter()
            .flat_map(move |s| s.ops.iter().filter(move |o| o.kind == kind))
    };
    // Mean over the queries that ran the operation; 0 when none did.
    let per_op = |kind: &'static str, f: fn(&OpSample) -> f64| -> f64 {
        let values: Vec<f64> = of_kind(kind).map(f).collect();
        stats::mean(&values)
    };
    // Work per query of the window, over every query.
    let per_query = |kind: &'static str, f: fn(&OpSample) -> f64| -> f64 {
        of_kind(kind).map(f).fold(0.0, |sum, x| sum + x) / n
    };
    for kind in OPERATIONS {
        let fields: [OpField; 6] = [
            ("busy_ms", |o| o.busy_ms),
            ("activations", |o| o.activations as f64),
            ("busy_imbalance", |o| o.imbalance),
            ("secondary_ratio", |o| o.secondary),
            ("idle_polls", |o| o.idle_polls as f64),
            ("cache_flushes", |o| o.flushes as f64),
        ];
        for (name, f) in fields {
            values.insert(format!("op.{kind}.{name}"), per_op(kind, f));
        }
    }
    values.insert(
        "op.join.lpt".into(),
        per_op("join", |o| f64::from(u8::from(o.lpt))),
    );

    let busy_ms: f64 = samples
        .iter()
        .flat_map(|s| s.ops.iter())
        .map(|o| o.busy_ms)
        .sum();
    values.insert(
        "runtime.utilisation".into(),
        busy_ms / 1e3 / (window.elapsed_s * workers as f64),
    );

    // Work each query did, priced at the replayed per-unit costs.
    let routed = per_query("transmit", |o| o.tuples_out as f64);
    let joined = per_query("join", |o| o.tuples_out as f64);
    let built = builds_per_query / sizes.degree as f64 * sizes.a as f64;
    let explained_ns = routed * (costs.route_ns + costs.handoff_ns)
        + joined * (costs.concat_ns + costs.handoff_ns)
        + sizes.b as f64 * costs.probe_ns
        + built * costs.build_ns;
    values.insert(
        "ledger.explained_frac".into(),
        explained_ns / (busy_ms / n * 1e6),
    );
}

/// The replayed single-layer costs.
pub fn replay_values(values: &mut BTreeMap<String, f64>, costs: &LayerCosts) {
    values.insert("storage.build_ns_per_tuple".into(), costs.build_ns);
    values.insert("storage.probe_ns_per_probe".into(), costs.probe_ns);
    values.insert("storage.concat_ns_per_tuple".into(), costs.concat_ns);
    values.insert("storage.route_ns_per_tuple".into(), costs.route_ns);
    values.insert("queue.handoff_ns_per_tuple".into(), costs.handoff_ns);
    values.insert("wire.encode_us".into(), costs.encode_us);
    values.insert("wire.decode_us".into(), costs.decode_us);
}

/// Timings read off the spans: medians per call and self time per layer.
pub fn span_values(values: &mut BTreeMap<String, f64>, spans: &SpanSummary) {
    for (layer, name) in [
        ("storage", "partition"),
        ("storage", "replace"),
        ("engine", "prepare"),
        ("engine", "submit"),
        ("engine", "wait"),
    ] {
        values.insert(format!("{layer}.{name}_ms"), spans.median_ms(layer, name));
    }
    for layer in SELF_TIME_LAYERS {
        values.insert(
            format!("self.{layer}_ms"),
            spans.layer_self_ms_per_query(layer),
        );
    }
}

/// The engine-level windows of a traced run: untraced and traced on the
/// `nproc` pool, then untraced on a one-worker pool.
pub struct EngineWindows {
    /// The traced window.
    pub traced: Window,
    /// p50 on one worker over p50 on `nproc` workers, both untraced.
    pub speedup: f64,
    /// p50 traced over p50 untraced, minus one.
    pub overhead: f64,
    /// Wrong answers over all three windows.
    pub wrong: u64,
}

/// Runs the three engine windows of a traced run, each `seconds` long
/// (the traced one twice as long).
pub fn engine_windows(
    state: &mut InProc,
    runtime: &Runtime,
    seconds: f64,
    next_query: &mut u64,
    tracer: &Tracer,
) -> Result<EngineWindows, BoxError> {
    let untraced = closed_loop(seconds, MEDIAN_SAMPLES, next_query, |q| {
        state.step(runtime, q, None)
    })?;
    let traced = closed_loop(2.0 * seconds, min_samples(95), next_query, |q| {
        state.step(runtime, q, Some(tracer))
    })?;
    let one_worker = Runtime::new(1)?;
    let single = closed_loop(seconds, MEDIAN_SAMPLES, next_query, |q| {
        state.step(&one_worker, q, None)
    })?;
    let untraced_p50 = untraced.p50()?;
    Ok(EngineWindows {
        speedup: single.p50()? / untraced_p50,
        overhead: traced.p50()? / untraced_p50 - 1.0,
        wrong: untraced.wrong() + traced.wrong() + single.wrong(),
        traced,
    })
}
