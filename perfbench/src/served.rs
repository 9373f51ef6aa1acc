//! The serve layers: an in-process `dbs3_serve::Server` on loopback,
//! driven open loop by Poisson arrivals over `nproc` connections beside the
//! traced run of `assoc_join_warm`.
//!
//! Each request is timed from the moment it was due to be sent, so a
//! stall that delays later requests shows in their latency instead of
//! slowing the arrivals down.

use crate::data;
use crate::stats::{self, percentile};
use crate::trace::Tracer;
use crate::BoxError;
use dbs3::engine::SchedulerOptions;
use dbs3::prelude::*;
use dbs3_serve::{Client, Server, ServerConfig};
use std::collections::BTreeMap;
use std::result::Result;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered load in requests per second: a quarter of the 60 per second the
/// mix kept up with on two workers (Intel Xeon, 2 vCPUs), so queries from
/// the two connections overlap often without building a backlog.
pub const OFFERED_QPS: f64 = 15.0;

/// One scheduled request: when it is due, relative to the window start,
/// and which plan it runs (0 AssocJoin, 1 IdealJoin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time in seconds after the window starts.
    pub offset_s: f64,
    /// Index into the mix's plans.
    pub plan: usize,
}

/// Poisson arrivals at `rate` per second over `seconds`: the number of
/// arrivals is fixed at `rate × seconds` and their times are uniform on the
/// window (a Poisson process conditioned on its count). Half the requests
/// run each plan, in seeded order.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut rng = data::Rng::new(seed);
    let count = (rate * seconds).round() as usize;
    let mut offsets: Vec<f64> = (0..count).map(|_| rng.unit() * seconds).collect();
    offsets.sort_by(f64::total_cmp);
    let mut plans: Vec<usize> = (0..count).map(|i| i % 2).collect();
    for i in (1..count).rev() {
        plans.swap(i, rng.below(i + 1));
    }
    offsets
        .into_iter()
        .zip(plans)
        .map(|(offset_s, plan)| Arrival { offset_s, plan })
        .collect()
}

/// One request as the generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Plan index.
    pub plan: usize,
    /// When the request was due.
    pub intended: Instant,
    /// When a connection took it.
    pub pickup: Instant,
    /// When it was written to the connection.
    pub send: Instant,
    /// When the response was complete.
    pub done: Instant,
    /// Result rows and server-side execution time in µs; `None` for an
    /// error response.
    pub answer: Option<(u64, u64)>,
}

impl Request {
    /// Latency from the due time to the complete response.
    pub fn latency_ms(&self) -> f64 {
        ms(self.intended, self.done)
    }

    /// Time spent waiting for a free connection after the due time.
    pub fn conn_wait_ms(&self) -> f64 {
        ms(self.intended, self.pickup)
    }

    /// How late the request was sent although a connection was free;
    /// `None` when it had to wait for one.
    pub fn late_ms(&self) -> Option<f64> {
        (self.pickup <= self.intended).then(|| ms(self.intended, self.send))
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Sends `arrivals` over `clients`, one thread per connection. A free
/// connection takes the next arrival and sleeps until it is due; when every
/// connection is busy the arrival waits, and that wait is part of its
/// latency.
pub fn open_loop(
    clients: &mut [Client],
    plans: &[Plan],
    arrivals: &[Arrival],
    first_request: u64,
    tracer: Option<&Tracer>,
) -> Vec<Request> {
    let options = SchedulerOptions {
        discard_results: true,
        ..SchedulerOptions::default()
    };
    let start = Instant::now() + Duration::from_millis(5);
    let next = AtomicUsize::new(0);
    let mut requests: Vec<Request> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                let options = &options;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        // ordering: the counter only hands out indexes.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(arrival) = arrivals.get(i) else {
                            break;
                        };
                        let intended = start + Duration::from_secs_f64(arrival.offset_s);
                        let pickup = Instant::now();
                        if pickup < intended {
                            std::thread::sleep(intended - pickup);
                        }
                        let send = Instant::now();
                        // Request id 0: never answered from the server's
                        // response ledger.
                        let answer = client
                            .execute(&plans[arrival.plan], options, 0)
                            .ok()
                            .map(|r| (r.result_cardinality().unwrap_or(0), r.metrics.elapsed_us));
                        let done = Instant::now();
                        let request = Request {
                            plan: arrival.plan,
                            intended,
                            pickup,
                            send,
                            done,
                            answer,
                        };
                        if let Some(t) = tracer {
                            let id = first_request + i as u64;
                            let root = t.record("bench", "request", id, None, intended, done);
                            match request.late_ms() {
                                Some(_) => t.record("gen", "late", id, Some(root), intended, send),
                                None => {
                                    t.record("serve", "conn_wait", id, Some(root), intended, pickup)
                                }
                            };
                            t.record("serve", "execute", id, Some(root), send, done);
                        }
                        mine.push((i, request));
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<(usize, Request)> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("a generator thread does not panic"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, r)| r).collect()
    });
    requests.shrink_to_fit();
    requests
}

/// What the traced side window over `dbs3-serve` measured.
#[derive(Debug, Clone)]
pub struct ServedLayers {
    /// `serve.*` and `gen.late_ms`.
    pub values: BTreeMap<String, f64>,
    /// Requests sent.
    pub requests: u64,
    /// Responses with a wrong cardinality, plus answers replayed from the
    /// server's response ledger.
    pub wrong: u64,
}

/// Serves `catalog` from an in-process server with `workers` workers on
/// loopback and drives it open loop for `seconds`: Poisson arrivals at
/// [`OFFERED_QPS`] over `workers` connections, half AssocJoin and half
/// IdealJoin in seeded order, every answer checked against `expected`.
/// Request ids start at `first_request`.
pub fn measure_layers(
    catalog: Catalog,
    workers: usize,
    seed: u64,
    seconds: f64,
    expected: u64,
    first_request: u64,
    tracer: &Tracer,
) -> Result<ServedLayers, BoxError> {
    let plans = [data::assoc_join(), data::ideal_join()];
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = Server::bind(catalog, "127.0.0.1:0", config)?;
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let traffic = (|| -> Result<Vec<Request>, BoxError> {
        let mut clients = Vec::with_capacity(workers);
        for _ in 0..workers {
            clients.push(Client::connect(handle.addr())?);
        }
        let arrivals = arrivals(seed, OFFERED_QPS, seconds);
        Ok(open_loop(
            &mut clients,
            &plans,
            &arrivals,
            first_request,
            Some(tracer),
        ))
    })();
    handle.stop();
    let stats = thread.join().map_err(|_| "the server thread panicked")??;
    let requests = traffic?;

    let correct: Vec<&Request> = requests
        .iter()
        .filter(|r| r.answer.is_some_and(|(rows, _)| rows == expected))
        .collect();
    let wrong = requests
        .iter()
        .filter(|r| r.answer.is_some_and(|(rows, _)| rows != expected))
        .count() as u64;
    let rtt_overhead: Vec<f64> = correct
        .iter()
        .map(|r| ms(r.send, r.done) - r.answer.map_or(0.0, |(_, us)| us as f64 / 1e3))
        .collect();
    let conn_wait: Vec<f64> = requests.iter().map(Request::conn_wait_ms).collect();
    let late: Vec<f64> = requests.iter().filter_map(Request::late_ms).collect();
    let mut values = BTreeMap::new();
    for (name, value) in [
        ("rtt_overhead_ms", stats::median(&rtt_overhead)),
        ("conn_wait_ms", stats::mean(&conn_wait)),
        ("replayed", stats.replayed as f64),
        ("shed", stats.shed as f64),
    ] {
        values.insert(format!("serve.{name}"), value);
    }
    values.insert(
        "gen.late_ms".into(),
        percentile(&late, 95).unwrap_or_else(|| late.iter().copied().fold(0.0, f64::max)),
    );
    Ok(ServedLayers {
        values,
        requests: requests.len() as u64,
        wrong: wrong + stats.replayed,
    })
}
