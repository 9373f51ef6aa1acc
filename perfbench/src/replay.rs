//! Replays of single layers: each public function called alone, on one
//! thread, on the workload's own data, timed from outside.

use crate::data::{self, JOIN_COLUMN, RESULT};
use dbs3::engine::{Activation, ActivationQueue, ExecutionSchedule, SchedulerOptions, TupleBatch};
use dbs3::prelude::*;
use dbs3::storage::HashIndex;
use dbs3_serve::{Frame, QueryRequest, WireMetrics};
use std::collections::VecDeque;
use std::error::Error;
use std::hint::black_box;
use std::result::Result;
use std::time::{Duration, Instant};

/// Each replay repeats until it has run this long (and at least
/// [`MIN_REPS`] times), then reports its median repetition.
const REPLAY_TIME: Duration = Duration::from_millis(150);
/// Fewest repetitions of one replay.
const MIN_REPS: usize = 5;

/// Replayed per-unit costs of the layers a query passes through.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    /// `Tuple::hash_key` + `PartitionSpec::fragment_of_hash`, ns per tuple.
    pub route_ns: f64,
    /// `HashIndex::build` over the inner fragments, ns per indexed tuple.
    pub build_ns: f64,
    /// `HashIndex::probe` with the workload's probe keys, walking every
    /// match, ns per probe.
    pub probe_ns: f64,
    /// `Tuple::concat` of one join result, ns per result tuple.
    pub concat_ns: f64,
    /// `ActivationQueue::push_batch` + `try_pop_batch` of `TupleBatch`es at
    /// the schedule's cache size, ns per tuple.
    pub handoff_ns: f64,
    /// `Frame::write_to` of one request and its response frames, µs.
    pub encode_us: f64,
    /// `Frame::read_from` of the same frames, µs.
    pub decode_us: f64,
}

/// Runs `rep` until [`REPLAY_TIME`] has passed and returns the median time
/// of one repetition divided by `units`.
fn time_per_unit(units: usize, mut rep: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_REPS || started.elapsed() < REPLAY_TIME {
        let t0 = Instant::now();
        rep();
        times.push(t0.elapsed().as_nanos() as f64);
    }
    crate::stats::median(&times) / units.max(1) as f64
}

/// The queue between the first pipelined operation and its producer:
/// `(producer cache size, consumer queue capacity)`.
fn handoff_shape(plan: &Plan, schedule: &ExecutionSchedule) -> Option<(usize, usize)> {
    plan.nodes().iter().find_map(|node| {
        if !node.kind.requires_pipeline() {
            return None;
        }
        let consumer = schedule.per_node().get(&node.id)?;
        let producer = schedule.per_node().get(&node.producer()?)?;
        Some((producer.cache_size.max(1), consumer.queue_capacity.max(1)))
    })
}

/// Replays every layer on the relations registered in `session`. `plan`
/// gives the queue shape; `wire_plans` are the requests a client would
/// send (their costs are averaged).
pub fn measure(
    session: &Session,
    plan: &Plan,
    wire_plans: &[Plan],
) -> Result<LayerCosts, Box<dyn Error + Send + Sync>> {
    let catalog = session.catalog();
    let a = catalog.get(data::A)?;
    let b = catalog.get(data::B)?;
    let a_col = a.schema().column_index(JOIN_COLUMN)?;
    let b_col = b.schema().column_index(JOIN_COLUMN)?;
    let probes: Vec<&Tuple> = b.fragments().iter().flat_map(|f| f.tuples()).collect();
    let spec = a.spec();
    let key = [b_col];

    let route_ns = time_per_unit(probes.len(), || {
        let mut sum = 0usize;
        for tuple in &probes {
            sum += spec.fragment_of_hash(black_box(tuple).hash_key(&key));
        }
        black_box(sum);
    });

    let build_ns = time_per_unit(a.cardinality(), || {
        for fragment in a.fragments() {
            black_box(HashIndex::build(black_box(fragment.tuples()), a_col));
        }
    });

    let indexes: Vec<HashIndex> = a
        .fragments()
        .iter()
        .map(|f| HashIndex::build(f.tuples(), a_col))
        .collect();
    let fragment_of = |tuple: &Tuple| spec.fragment_of_hash(tuple.hash_key(&key));
    let probe_ns = time_per_unit(probes.len(), || {
        let mut matches = 0usize;
        for tuple in &probes {
            let f = fragment_of(tuple);
            matches += indexes[f]
                .probe(a.fragments()[f].tuples(), black_box(tuple.value(b_col)))
                .count();
        }
        black_box(matches);
    });

    let pairs: Vec<(&Tuple, &Tuple)> = probes
        .iter()
        .flat_map(|&outer| {
            let f = fragment_of(outer);
            indexes[f]
                .probe(a.fragments()[f].tuples(), outer.value(b_col))
                .map(move |inner| (outer, inner))
        })
        .collect();
    let concat_ns = time_per_unit(pairs.len(), || {
        for (outer, inner) in &pairs {
            black_box(outer.concat(inner));
        }
    });

    let schedule = session.query(plan).discard_results().schedule()?;
    let (cache_size, capacity) =
        handoff_shape(plan, &schedule).ok_or("the plan has no pipelined queue to replay")?;
    let queue = ActivationQueue::new(0, capacity, 0.0);
    let mut batches: VecDeque<Activation> = probes
        .chunks(cache_size)
        .map(|chunk| Activation::Data(TupleBatch::new(chunk.iter().map(|&t| t.clone()).collect())))
        .collect();
    let handoff_ns = time_per_unit(probes.len(), || {
        let mut popped = VecDeque::with_capacity(batches.len());
        while !batches.is_empty() {
            // Push no more than the capacity at once: a single thread must
            // never block on a full queue.
            let mut group = Vec::new();
            let mut weight = 0;
            while let Some(next) = batches.front() {
                if !group.is_empty() && weight + next.queue_weight() > capacity {
                    break;
                }
                weight += next.queue_weight();
                group.extend(batches.pop_front());
            }
            queue.push_batch(group);
            loop {
                let got = queue.try_pop_batch(cache_size);
                if got.is_empty() {
                    break;
                }
                popped.extend(got);
            }
        }
        batches = popped;
    });

    let mut encode_us = 0.0;
    let mut decode_us = 0.0;
    for wire_plan in wire_plans {
        let frames = [
            Frame::Query(QueryRequest {
                plan: wire_plan.clone(),
                options: SchedulerOptions {
                    discard_results: true,
                    ..SchedulerOptions::default()
                },
                deadline_ms: 0,
                request_id: 0,
            }),
            Frame::Cardinality {
                name: RESULT.to_string(),
                rows: pairs.len() as u64,
            },
            Frame::Metrics(WireMetrics {
                elapsed_us: 20_000,
                total_activations: pairs.len() as u64,
                worst_imbalance: 1.0,
                total_threads: 2,
            }),
        ];
        let mut buffer = Vec::new();
        let mut encode_error = None;
        encode_us += time_per_unit(1000, || {
            buffer.clear();
            for frame in &frames {
                if let Err(e) = frame.write_to(&mut buffer) {
                    encode_error = Some(e);
                }
            }
        });
        if let Some(e) = encode_error {
            return Err(e.into());
        }
        let mut decoded = 0;
        decode_us += time_per_unit(1000, || {
            let mut reader = buffer.as_slice();
            while let Ok(Some(frame)) = Frame::read_from(&mut reader) {
                black_box(frame);
                decoded += 1;
            }
        });
        if decoded % frames.len() != 0 {
            return Err("the replayed frames did not decode".into());
        }
    }
    let wire_count = wire_plans.len().max(1) as f64;
    Ok(LayerCosts {
        route_ns,
        build_ns,
        probe_ns,
        concat_ns,
        handoff_ns,
        encode_us: encode_us / wire_count,
        decode_us: decode_us / wire_count,
    })
}
