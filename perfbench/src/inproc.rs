//! The workloads, `assoc_join_warm` and `skew_churn`: one client thread in
//! a closed loop against a `Session` and a `Runtime::new(nproc)` pool.

use crate::cli::{RunArgs, Workload};
use crate::data::{self, Base, PAPER, RESULT, SKEW_THETA};
use crate::layers::{cache_values, engine_values, engine_windows, replay_values, span_values};
use crate::replay;
use crate::report::Report;
use crate::served;
use crate::stats::{self, min_samples, percentile};
use crate::trace::{self, SpanSummary, Tracer};
use crate::BoxError;
use dbs3::engine::{CacheStats, ConsumptionStrategy, ExecutionMetrics};
use dbs3::prelude::*;
use dbs3::storage::StorageError;
use std::collections::BTreeMap;
use std::result::Result;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// How often a workload that does not write reloads `A` into a catalog of
/// its own, so `write_p50_ms` is measured on every workload. Spreading the
/// reloads over the whole window keeps a burst of noise on the shared host
/// from moving all of them.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(500);
/// Samples of a window that only needs a median (ten beyond it).
pub const MEDIAN_SAMPLES: usize = 20;

/// Latency limit of `goodput_qps` for each workload, in milliseconds.
pub fn latency_limit_ms(workload: Workload) -> f64 {
    match workload {
        Workload::AssocJoinWarm => 100.0,
        Workload::SkewChurn => 200.0,
    }
}

/// What one operation of one query reported.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSample {
    /// Operator kind (`transmit`, `join`, `store`).
    pub kind: &'static str,
    /// Busy time summed over the operation's threads.
    pub busy_ms: f64,
    /// Logical activations consumed.
    pub activations: u64,
    /// Tuples produced.
    pub tuples_out: u64,
    /// `max_busy / avg_busy` over its threads.
    pub imbalance: f64,
    /// Share of activations taken from secondary queues.
    pub secondary: f64,
    /// Probes that found nothing to pop.
    pub idle_polls: u64,
    /// Producer-side cache flushes.
    pub flushes: u64,
    /// Whether the pool consumed with LPT.
    pub lpt: bool,
}

/// One query of a closed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The query returned the oracle's cardinality.
    pub correct: bool,
    /// The query returned an error (as opposed to a wrong answer).
    pub error: bool,
    /// Query latency: prepare (when the loop prepares) + submit + wait.
    pub latency_ms: f64,
    /// `PreparedQuery::submit` + `QueryHandle::wait`.
    pub engine_ms: f64,
    /// Reload of `A` before the query: before every query on `skew_churn`,
    /// a probe every [`PROBE_INTERVAL`] elsewhere.
    pub write_ms: Option<f64>,
    /// `ExecutionMetrics::elapsed`.
    pub exec_ms: f64,
    /// Per-operation metrics.
    pub ops: Vec<OpSample>,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn op_samples(plan: &Plan, metrics: &ExecutionMetrics) -> Vec<OpSample> {
    metrics
        .operations
        .iter()
        .map(|op| OpSample {
            kind: plan.node(op.node).map_or("unknown", |n| n.kind.name()),
            busy_ms: op.threads.iter().map(|t| t.busy.as_secs_f64() * 1e3).sum(),
            activations: op.total_activations(),
            tuples_out: op.total_tuples_out(),
            imbalance: op.busy_imbalance(),
            secondary: op.secondary_consumption_ratio(),
            idle_polls: op.threads.iter().map(|t| t.idle_polls).sum(),
            flushes: op.threads.iter().map(|t| t.cache_flushes).sum(),
            lpt: op.strategy == ConsumptionStrategy::Lpt,
        })
        .collect()
}

impl Sample {
    fn new(
        plan: &Plan,
        outcome: dbs3::Result<QueryOutcome>,
        expected: u64,
        latency_ms: f64,
        engine_ms: f64,
        write_ms: Option<f64>,
    ) -> Sample {
        let (correct, error, exec_ms, ops) = match &outcome {
            Ok(outcome) => {
                let rows = outcome.result_cardinality(RESULT).map(|r| r as u64);
                let (exec_ms, ops) = outcome.execution_metrics().map_or((0.0, Vec::new()), |m| {
                    (m.elapsed.as_secs_f64() * 1e3, op_samples(plan, m))
                });
                (rows == Some(expected), false, exec_ms, ops)
            }
            Err(_) => (false, true, 0.0, Vec::new()),
        };
        Sample {
            correct,
            error,
            latency_ms,
            engine_ms,
            write_ms,
            exec_ms,
            ops,
        }
    }
}

/// The state a closed loop runs against.
#[derive(Debug)]
pub struct InProc {
    /// Generated base relations (the reload source).
    pub base: Base,
    /// Session over the partitioned relations.
    pub session: Session,
    /// The workload's plan.
    pub plan: Plan,
    /// The plan prepared at set-up.
    pub prepared: PreparedQuery,
    /// The oracle's cardinality.
    pub expected: u64,
    /// Zipf θ of `A`; a skewed `A` is reloaded before every query.
    pub theta: f64,
    /// Reloads beside an unskewed workload.
    pub probe: WriteProbe,
}

/// Reloads `A`: partition, then `Catalog::replace`, dropping the displaced
/// version. Returns when each step started and when the reload ended.
pub fn reload(
    base: &Base,
    theta: f64,
    catalog: &mut Catalog,
) -> Result<[Instant; 3], StorageError> {
    let t0 = Instant::now();
    let partitioned = base.partition_a(theta)?;
    let t1 = Instant::now();
    drop(catalog.replace(partitioned));
    Ok([t0, t1, Instant::now()])
}

/// Timed reloads of `A` into a catalog nothing queries, at most once per
/// [`PROBE_INTERVAL`].
#[derive(Debug, Default)]
pub struct WriteProbe {
    catalog: Catalog,
    last: Option<Instant>,
}

impl WriteProbe {
    /// Reloads `A` if the interval has passed since the last reload and
    /// returns the reload time in milliseconds.
    pub fn poll(
        &mut self,
        base: &Base,
        tracer: Option<&Tracer>,
    ) -> Result<Option<f64>, StorageError> {
        if self
            .last
            .is_some_and(|last| last.elapsed() < PROBE_INTERVAL)
        {
            return Ok(None);
        }
        let [t0, t1, t2] = reload(base, 0.0, &mut self.catalog)?;
        self.last = Some(t2);
        trace::record(tracer, "storage", "partition", 0, None, t0, t1);
        trace::record(tracer, "storage", "replace", 0, None, t1, t2);
        Ok(Some(ms(t0, t2)))
    }
}

impl InProc {
    /// Generates the database, registers it, starts a `nproc`-worker pool
    /// and runs `plan` once cold. Returns the state, the pool and the
    /// set-up time in seconds. The oracle's cardinality is computed after
    /// the clock stops, unless `expected` already holds it.
    pub fn setup(
        plan: &Plan,
        theta: f64,
        seed: u64,
        workers: usize,
        expected: &mut Option<u64>,
        tracer: Option<&Tracer>,
    ) -> Result<(InProc, Runtime, f64), BoxError> {
        let t0 = Instant::now();
        let base = Base::generate(PAPER, seed)?;
        let session = Session::from_catalog(base.catalog(theta)?);
        let runtime = Runtime::new(workers)?;
        let p0 = Instant::now();
        let prepared = session.query(plan).discard_results().prepare()?;
        let p1 = Instant::now();
        let outcome = prepared.submit(&session, &runtime)?.wait()?;
        let rows = outcome.result_cardinality(RESULT).unwrap_or(0) as u64;
        let t1 = Instant::now();
        if let Some(t) = tracer {
            let root = t.record("bench", "setup", 0, None, t0, t1);
            t.record("engine", "prepare", 0, Some(root), p0, p1);
        }
        let expected = match *expected {
            Some(e) => e,
            None => *expected.insert(data::expected_join(session.catalog())?),
        };
        if rows != expected {
            return Err(format!(
                "cold {} returned {rows} rows; the oracle expects {expected}",
                plan.name()
            )
            .into());
        }
        let state = InProc {
            base,
            session,
            plan: plan.clone(),
            prepared,
            expected,
            theta,
            probe: WriteProbe::default(),
        };
        Ok((state, runtime, (t1 - t0).as_secs_f64()))
    }

    /// Runs query `q` of the loop on `runtime`.
    pub fn step(&mut self, runtime: &Runtime, q: u64, tracer: Option<&Tracer>) -> Sample {
        if self.theta > 0.0 {
            self.churn_step(runtime, q, tracer)
        } else {
            self.warm_step(runtime, q, tracer)
        }
    }

    /// Submits the prepared query and waits for it, after a probe
    /// reload when one is due.
    fn warm_step(&mut self, runtime: &Runtime, q: u64, tracer: Option<&Tracer>) -> Sample {
        let write_ms = match self.probe.poll(&self.base, tracer) {
            Ok(write_ms) => write_ms,
            Err(e) => return Sample::new(&self.plan, Err(e.into()), self.expected, 0.0, 0.0, None),
        };
        let t0 = Instant::now();
        let handle = self.prepared.submit(&self.session, runtime);
        let t1 = Instant::now();
        let outcome = handle.and_then(|h| h.wait());
        let t2 = Instant::now();
        if let Some(t) = tracer {
            let root = t.record("bench", "query", q, None, t0, t2);
            t.record("engine", "submit", q, Some(root), t0, t1);
            t.record("engine", "wait", q, Some(root), t1, t2);
        }
        Sample::new(
            &self.plan,
            outcome,
            self.expected,
            ms(t0, t2),
            ms(t0, t2),
            write_ms,
        )
    }

    /// Reloads `A` (partition + `Catalog::replace`), then prepares,
    /// submits and waits: every query misses both caches.
    fn churn_step(&mut self, runtime: &Runtime, q: u64, tracer: Option<&Tracer>) -> Sample {
        let [t0, t1, t2] = match reload(&self.base, self.theta, self.session.catalog_mut()) {
            Ok(instants) => instants,
            Err(e) => return Sample::new(&self.plan, Err(e.into()), self.expected, 0.0, 0.0, None),
        };
        let prepared = self.session.query(&self.plan).discard_results().prepare();
        let t3 = Instant::now();
        let handle = prepared.and_then(|p| p.submit(&self.session, runtime));
        let t4 = Instant::now();
        let outcome = handle.and_then(|h| h.wait());
        let t5 = Instant::now();
        if let Some(t) = tracer {
            let root = t.record("bench", "query", q, None, t0, t5);
            t.record("storage", "partition", q, Some(root), t0, t1);
            t.record("storage", "replace", q, Some(root), t1, t2);
            t.record("engine", "prepare", q, Some(root), t2, t3);
            t.record("engine", "submit", q, Some(root), t3, t4);
            t.record("engine", "wait", q, Some(root), t4, t5);
        }
        Sample::new(
            &self.plan,
            outcome,
            self.expected,
            ms(t2, t5),
            ms(t3, t5),
            Some(ms(t0, t2)),
        )
    }
}

/// A measured closed-loop window.
#[derive(Debug, Clone)]
pub struct Window {
    /// Every query, in order.
    pub samples: Vec<Sample>,
    /// Wall time of the window.
    pub elapsed_s: f64,
    /// Cache activity over the window.
    pub cache: CacheStats,
}

impl Window {
    /// Latencies of the correct queries.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.correct)
            .map(|s| s.latency_ms)
            .collect()
    }

    /// Median latency of the correct queries.
    pub fn p50(&self) -> Result<f64, BoxError> {
        percentile(&self.latencies(), 50).ok_or_else(|| "too few queries for a median".into())
    }

    /// Queries that returned a wrong cardinality.
    pub fn wrong(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| !s.correct && !s.error)
            .count() as u64
    }

    /// Queries that did not return the oracle's cardinality.
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.correct).count() as u64
    }
}

/// Runs `step` back to back for at least `seconds` and at least
/// `min_samples` queries, numbering queries from `*next_query`.
pub fn closed_loop(
    seconds: f64,
    min_samples: usize,
    next_query: &mut u64,
    mut step: impl FnMut(u64) -> Sample,
) -> Result<Window, BoxError> {
    // Past this the run would not finish in time: fail instead of
    // reporting a tail from too few samples.
    let cap = 2.0 * seconds + 30.0;
    let before = dbs3::cache_stats();
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= seconds && samples.len() >= min_samples {
            break;
        }
        if elapsed >= cap {
            return Err(format!(
                "only {} queries in {elapsed:.1} s; {min_samples} are needed",
                samples.len()
            )
            .into());
        }
        samples.push(step(*next_query));
        *next_query += 1;
    }
    Ok(Window {
        samples,
        elapsed_s: started.elapsed().as_secs_f64(),
        cache: dbs3::cache_stats().since(&before),
    })
}

/// Runs `assoc_join_warm` or `skew_churn`.
pub fn run(args: &RunArgs, nproc: usize, tracer: Option<&Tracer>) -> Result<Report, BoxError> {
    let churn = args.workload == Workload::SkewChurn;
    let (plan, theta) = if churn {
        (data::ideal_join(), SKEW_THETA)
    } else {
        (data::assoc_join(), 0.0)
    };
    let mut expected = None;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut current = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up before timing the next one.
        drop(current.take());
        let (state, runtime, seconds) =
            InProc::setup(&plan, theta, args.seed, nproc, &mut expected, tracer)?;
        setup_s.push(seconds);
        current = Some((state, runtime));
    }
    let (mut state, runtime) = current.ok_or("no set-up ran")?;
    let seconds = args.seconds as f64;
    let mut next_query = 1;

    let Some(tracer) = tracer else {
        let window = closed_loop(seconds, min_samples(95), &mut next_query, |q| {
            state.step(&runtime, q, None)
        })?;
        let rss_peak_mb = crate::host::peak_rss_mb().ok_or("VmHWM is not readable")?;
        let writes: Vec<f64> = window.samples.iter().filter_map(|s| s.write_ms).collect();
        let limit = latency_limit_ms(args.workload);
        let within = window
            .samples
            .iter()
            .filter(|s| s.correct && s.latency_ms <= limit)
            .count();
        let mut values = BTreeMap::new();
        let latencies = window.latencies();
        values.insert(
            "queries_per_s".into(),
            latencies.len() as f64 / window.elapsed_s,
        );
        values.insert("latency_p50_ms".into(), required(&latencies, 50)?);
        values.insert("latency_p95_ms".into(), required(&latencies, 95)?);
        values.insert("write_p50_ms".into(), stats::median(&writes));
        values.insert("goodput_qps".into(), within as f64 / window.elapsed_s);
        values.insert(
            "ok_frac".into(),
            latencies.len() as f64 / window.samples.len() as f64,
        );
        values.insert("setup_s".into(), stats::median(&setup_s));
        values.insert("rss_peak_mb".into(), rss_peak_mb);
        return Ok(Report {
            correct: window.wrong() == 0,
            attempted: window.samples.len() as u64,
            failed: window.failed(),
            values,
            notes: Vec::new(),
        });
    };

    let engine = engine_windows(&mut state, &runtime, seconds / 2.0, &mut next_query, tracer)?;
    let costs = replay::measure(&state.session, &plan, std::slice::from_ref(&plan))?;
    let mut values = BTreeMap::new();
    let traced = &engine.traced;
    values.insert("runtime.speedup_vs_1w".into(), engine.speedup);
    values.insert("trace.overhead_frac".into(), engine.overhead);
    cache_values(&mut values, &traced.cache, traced.samples.len());
    engine_values(
        &mut values,
        traced,
        &costs,
        state.base.sizes,
        nproc,
        traced.cache.index.misses as f64 / traced.samples.len().max(1) as f64,
    );
    replay_values(&mut values, &costs);
    // The serve layers run beside the warm workload only: the server needs
    // a catalog that no reload changes under it.
    let served_wrong = if churn {
        for name in ["rtt_overhead_ms", "conn_wait_ms", "replayed", "shed"] {
            values.insert(format!("serve.{name}"), 0.0);
        }
        values.insert("gen.late_ms".into(), 0.0);
        0
    } else {
        let served = served::measure_layers(
            state.session.catalog().clone(),
            nproc,
            args.seed,
            seconds / 2.0,
            expected.ok_or("no oracle cardinality")?,
            next_query,
            tracer,
        )?;
        values.extend(served.values);
        served.wrong
    };
    span_values(&mut values, &SpanSummary::new(tracer.spans()));
    Ok(Report {
        correct: engine.wrong + served_wrong == 0,
        attempted: traced.samples.len() as u64,
        failed: traced.failed(),
        values,
        notes: Vec::new(),
    })
}

/// A percentile the run must be long enough to report.
pub fn required(samples: &[f64], q: u32) -> Result<f64, BoxError> {
    percentile(samples, q).ok_or_else(|| {
        format!(
            "{} correct samples cannot give a p{q}; {} are needed",
            samples.len(),
            min_samples(q)
        )
        .into()
    })
}
