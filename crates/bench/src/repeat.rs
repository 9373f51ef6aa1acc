//! Repeated-submit workload: how cheap is query setup the second time?
//!
//! The prepared-query cache and the relation-owned fragment indexes exist
//! to make *repeat* and *concurrent* submissions of one plan shape ~free to
//! set up: expansion, scheduling and the build-side [`HashIndex`] are paid
//! once, every later submission skips straight to binding and probing. This
//! module measures exactly that: `N` sequential submits of the fig14
//! AssocJoin against a *small probe side* (the build side dominates, so
//! setup cost is the signal, not probe work) on a shared [`Runtime`] pool.
//! The first submit is genuinely cold — the database is generated fresh, so
//! its relations carry new catalog generations no cache entry can match —
//! and every later submit should be a cache hit.
//!
//! The emitted [`RepeatRun`] carries end-to-end cold and warm latencies plus
//! the process-wide cache-counter deltas ([`dbs3::cache_stats`]) split into
//! the cold and warm windows, so `BENCH_engine.json` records both "how much
//! faster" and "why" (hit rates). The `baseline` binary gates on the warm
//! hit rate: a cache regression fails the bench run, not a later PR.
//!
//! [`HashIndex`]: dbs3_storage::HashIndex

use dbs3::prelude::*;
use std::time::Instant;

/// Pool width of the repeat workload.
pub const REPEAT_POOL_THREADS: usize = 4;

/// Total submissions per measurement (1 cold + N-1 warm).
pub const REPEAT_SUBMITS: usize = 16;

/// One measured repeated-submit configuration.
#[derive(Debug, Clone)]
pub struct RepeatRun {
    /// Workload identifier (the plan shape every submit shares).
    pub workload: &'static str,
    /// Tier the workload data was generated at.
    pub scale: &'static str,
    /// Number of worker threads in the shared pool.
    pub pool_threads: usize,
    /// Total submissions (first is cold, the rest are warm).
    pub submits: usize,
    /// End-to-end submit+wait latency of the cold first submission, seconds.
    pub cold_s: f64,
    /// Mean end-to-end latency of the warm submissions, seconds.
    pub warm_avg_s: f64,
    /// Best end-to-end latency of the warm submissions, seconds.
    pub warm_best_s: f64,
    /// `cold_s / warm_avg_s` — how much the caches shave off a repeat
    /// submission end-to-end.
    pub warm_speedup: f64,
    /// Prepared-plan cache hits/misses over the warm submissions.
    pub warm_plan_hits: u64,
    /// See [`Self::warm_plan_hits`].
    pub warm_plan_misses: u64,
    /// Fragment-index hits/misses over the warm submissions.
    pub warm_index_hits: u64,
    /// See [`Self::warm_index_hits`].
    pub warm_index_misses: u64,
    /// Combined warm hit rate over both caches: hits / (hits + misses).
    pub warm_hit_rate: f64,
    /// Result cardinality of every submission, in order (all must agree).
    pub cardinalities: Vec<usize>,
}

/// Submits `submits` copies of `plan` one after another to a fresh
/// [`Runtime`] of `pool_threads` workers, timing each end-to-end
/// (submit+wait) and attributing cache activity to the cold and warm
/// windows via [`dbs3::cache_stats`] deltas.
pub fn run_repeat(
    session: &Session,
    plan: &Plan,
    workload: &'static str,
    pool_threads: usize,
    submits: usize,
) -> dbs3::Result<RepeatRun> {
    assert!(submits >= 2, "need one cold and at least one warm submit");
    let runtime = Runtime::new(pool_threads)?;
    let mut latencies = Vec::with_capacity(submits);
    let mut cardinalities = Vec::with_capacity(submits);
    let mut after_cold = dbs3::cache_stats();
    for i in 0..submits {
        let started = Instant::now();
        let outcome = session
            .query(plan)
            .threads(pool_threads)
            .discard_results()
            .submit(&runtime)?
            .wait()?;
        latencies.push(started.elapsed().as_secs_f64());
        cardinalities.push(outcome.result_cardinality("Result").unwrap_or(0));
        if i == 0 {
            after_cold = dbs3::cache_stats();
        }
    }
    let warm = dbs3::cache_stats().since(&after_cold);
    let cold_s = latencies[0];
    let warm_latencies = &latencies[1..];
    let warm_avg_s = warm_latencies.iter().sum::<f64>() / warm_latencies.len() as f64;
    let warm_best_s = warm_latencies.iter().cloned().fold(f64::INFINITY, f64::min);
    let hits = warm.plan.hits + warm.index.hits;
    let lookups = hits + warm.plan.misses + warm.index.misses;
    Ok(RepeatRun {
        workload,
        scale: "unscaled",
        pool_threads,
        submits,
        cold_s,
        warm_avg_s,
        warm_best_s,
        warm_speedup: if warm_avg_s > 0.0 {
            cold_s / warm_avg_s
        } else {
            0.0
        },
        warm_plan_hits: warm.plan.hits,
        warm_plan_misses: warm.plan.misses,
        warm_index_hits: warm.index.hits,
        warm_index_misses: warm.index.misses,
        warm_hit_rate: if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
        cardinalities,
    })
}

/// Measures the repeated-submit shape of `BENCH_engine.json` at `scale`:
/// the fig14 AssocJoin (hash) with a deliberately small probe side
/// (`scale.cardinality(2_000)` outer tuples against a
/// `scale.cardinality(200_000)`-tuple build side), [`REPEAT_SUBMITS`]
/// sequential submissions on a [`REPEAT_POOL_THREADS`]-worker pool.
///
/// The database is generated *inside* this call so its relations carry
/// fresh catalog generations: the first submission can never be served by a
/// cache entry from an earlier tier, making the recorded `cold_s` honest.
pub fn run_repeat_baseline(scale: crate::ExperimentScale) -> RepeatRun {
    let db = crate::JoinDatabase::generate(scale.cardinality(200_000), scale.cardinality(2_000));
    let session = db.session(scale.degree(200), 0.0);
    let plan = dbs3_lera::plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let mut run = run_repeat(
        &session,
        &plan,
        "fig14_assoc_join_small_probe",
        REPEAT_POOL_THREADS,
        REPEAT_SUBMITS,
    )
    .expect("repeat workload executes on the shared pool");
    run.scale = scale.name();
    run
}

impl RepeatRun {
    /// One flat JSON object for the `repeat` section of `BENCH_engine.json`.
    pub fn to_json_row(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"scale\": \"{}\", \"pool_threads\": {}, \
             \"submits\": {}, \"cold_s\": {:.6}, \"warm_avg_s\": {:.6}, \
             \"warm_best_s\": {:.6}, \"warm_speedup\": {:.2}, \
             \"warm_plan_hits\": {}, \"warm_plan_misses\": {}, \
             \"warm_index_hits\": {}, \"warm_index_misses\": {}, \
             \"warm_hit_rate\": {:.4}}}",
            self.workload,
            self.scale,
            self.pool_threads,
            self.submits,
            self.cold_s,
            self.warm_avg_s,
            self.warm_best_s,
            self.warm_speedup,
            self.warm_plan_hits,
            self.warm_plan_misses,
            self.warm_index_hits,
            self.warm_index_misses,
            self.warm_hit_rate,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentScale;

    #[test]
    fn smoke_repeat_measures_cold_and_warm_windows() {
        let run = run_repeat_baseline(ExperimentScale::Smoke);
        assert_eq!(run.submits, REPEAT_SUBMITS);
        assert_eq!(run.cardinalities.len(), REPEAT_SUBMITS);
        let first = run.cardinalities[0];
        assert!(first > 0);
        assert!(run.cardinalities.iter().all(|&c| c == first));
        assert!(run.cold_s > 0.0 && run.warm_avg_s > 0.0);
        // The data is freshly generated, so the warm window of *this* run
        // repeats a plan the cold submit just cached: everything hits.
        assert!(
            run.warm_hit_rate >= 0.9,
            "warm submissions must be served by the caches: {run:?}"
        );
        assert_eq!(run.warm_plan_misses, 0, "{run:?}");
    }

    #[test]
    fn repeat_rejects_fewer_than_two_submits() {
        let result = std::panic::catch_unwind(|| {
            let db = crate::JoinDatabase::generate(500, 50);
            let session = db.session(4, 0.0);
            let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
            run_repeat(&session, &plan, "test", 2, 1)
        });
        assert!(result.is_err(), "a single submit has no warm window");
    }

    #[test]
    fn json_row_is_flat_and_balanced() {
        let run = RepeatRun {
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
        };
        let row = run.to_json_row();
        assert!(row.contains("\"warm_speedup\": 10.00"));
        assert!(row.contains("\"warm_hit_rate\": 1.0000"));
        assert!(row.contains("\"warm_plan_misses\": 0"));
        assert_eq!(row.matches('{').count(), row.matches('}').count());
    }
}
