//! Tests of the benchmark's own logic: percentiles, open-loop timing, the
//! oracle, span arithmetic, the command line and the metric catalogue.

use dbs3::prelude::*;
use dbs3_serve::{Client, Server, ServerConfig};
use perfbench::cli::{self, Command, RunArgs, Workload};
use perfbench::data::{self, Base, Sizes};
use perfbench::report::{self, Report};
use perfbench::served::{self, Arrival};
use perfbench::stats::{min_samples, percentile};
use perfbench::trace::{self_times, Span, SpanSummary};
use std::collections::BTreeMap;
use std::result::Result;

const SMALL: Sizes = Sizes {
    a: 2_000,
    b: 200,
    degree: 20,
};

#[test]
fn p95_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=199).map(f64::from).collect();
    assert_eq!(percentile(&samples, 95), None, "199 samples leave 9 beyond");
    let samples: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(percentile(&samples, 95), Some(190.0));
    assert_eq!(min_samples(95), 200);
    assert_eq!(min_samples(50), 20);
    let mut shuffled: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    shuffled.swap(3, 11);
    assert_eq!(percentile(&shuffled, 50), Some(10.0));
    assert_eq!(percentile(&shuffled[..19], 50), None);
}

#[test]
fn self_time_subtracts_the_union_of_children_inside_the_parent() {
    let span = |parent: Option<usize>, start_ns: u64, end_ns: u64| Span {
        layer: "bench",
        name: "x",
        query: 1,
        parent,
        start_ns,
        end_ns,
    };
    let spans = vec![
        span(None, 0, 100),
        // Two overlapping children cover 10..50 once.
        span(Some(0), 10, 30),
        span(Some(0), 20, 50),
        // A child running past its parent counts only inside it.
        span(Some(0), 90, 120),
        // A grandchild is its parent's business, not the root's.
        span(Some(1), 12, 18),
    ];
    assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);

    let summary = SpanSummary::new(spans);
    assert_eq!(summary.layer_self_ms_per_query("bench"), 130.0 / 1e6);
    assert_eq!(summary.layer_self_ms_per_query("engine"), 0.0);
}

#[test]
fn oracle_counts_duplicate_keys() {
    let tuples = |keys: &[i64]| -> Vec<Tuple> {
        keys.iter()
            .map(|&k| Tuple::new(vec![Value::Int(k)]))
            .collect()
    };
    let outer = tuples(&[1, 2, 2, 9]);
    let inner = tuples(&[2, 2, 2, 1, 5]);
    // 1 matches once, each 2 matches three times, 9 never.
    assert_eq!(perfbench::oracle::join_cardinality(&outer, 0, &inner, 0), 7);
}

#[test]
fn oracle_agrees_with_the_engine_on_a_small_seed() {
    let base = Base::generate(SMALL, 42).unwrap();
    let runtime = Runtime::new(2).unwrap();
    for theta in [0.0, data::SKEW_THETA] {
        let session = Session::from_catalog(base.catalog(theta).unwrap());
        let expected = data::expected_join(session.catalog()).unwrap();
        assert!(expected > 0);
        for plan in [data::assoc_join(), data::ideal_join()] {
            let outcome = session
                .query(&plan)
                .discard_results()
                .submit(&runtime)
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                outcome.result_cardinality(data::RESULT).map(|r| r as u64),
                Some(expected),
                "{} at theta {theta}",
                plan.name()
            );
        }
    }
}

#[test]
fn arrivals_are_seeded_sorted_and_balanced() {
    let a = served::arrivals(7, 20.0, 10.0);
    assert_eq!(a, served::arrivals(7, 20.0, 10.0));
    assert_ne!(a, served::arrivals(8, 20.0, 10.0));
    assert_eq!(a.len(), 200);
    assert!(a.windows(2).all(|w| w[0].offset_s <= w[1].offset_s));
    assert!(a.iter().all(|x| (0.0..10.0).contains(&x.offset_s)));
    assert_eq!(a.iter().filter(|x| x.plan == 0).count(), 100);
}

#[test]
fn open_loop_latency_counts_from_the_intended_send_time() {
    let base = Base::generate(SMALL, 3).unwrap();
    let catalog = base.catalog(0.0).unwrap();
    let expected = data::expected_join(&catalog).unwrap();
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(catalog, "127.0.0.1:0", config).unwrap();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let mut clients = vec![Client::connect(handle.addr()).unwrap()];
    // Three requests due at once on one connection: the later two must
    // wait for it, and that wait belongs to their latency.
    let arrivals = vec![
        Arrival {
            offset_s: 0.0,
            plan: 0
        };
        3
    ];
    let requests = served::open_loop(&mut clients, &[data::assoc_join()], &arrivals, 1, None);
    drop(clients);
    handle.stop();
    let stats = thread.join().unwrap().unwrap();
    assert_eq!(stats.replayed, 0);

    assert_eq!(requests.len(), 3);
    for (i, r) in requests.iter().enumerate() {
        assert_eq!(r.answer.map(|(rows, _)| rows), Some(expected));
        let execute_ms = r.done.duration_since(r.send).as_secs_f64() * 1e3;
        assert!(r.latency_ms() >= execute_ms);
        if i > 0 {
            assert!(
                r.late_ms().is_none(),
                "request {i} found the connection busy"
            );
            let previous = &requests[i - 1];
            assert!(r.pickup >= previous.done);
            assert!(r.latency_ms() >= previous.latency_ms() + execute_ms - 1e-6);
            assert!(r.conn_wait_ms() > 0.0);
        }
    }
}

fn args(list: &[&str]) -> Result<Command, String> {
    cli::parse(list.iter().map(|s| s.to_string()))
}

#[test]
fn the_command_line_rejects_what_it_does_not_understand() {
    let ok = [
        "--workload",
        "skew_churn",
        "--seed",
        "9",
        "--seconds",
        "12",
        "--trace",
        "1",
    ];
    assert_eq!(
        args(&ok),
        Ok(Command::Run(RunArgs {
            workload: Workload::SkewChurn,
            seed: 9,
            seconds: 12,
            trace: true,
        }))
    );
    assert_eq!(args(&["--help"]), Ok(Command::Help));
    assert_eq!(args(&["--workload", "x", "-h"]), Ok(Command::Help));
    for bad in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "assoc_join_warm",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "assoc_join_warm",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "assoc_join_warm",
            "--seed",
            "1",
            "--seconds",
            "61",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "assoc_join_warm",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec![
            "--workload",
            "assoc_join_warm",
            "--seed",
            "1",
            "--seconds",
            "1",
        ],
        vec![
            "--workload",
            "assoc_join_warm",
            "--seed",
            "1",
            "--seed",
            "2",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "assoc_join_warm",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--out",
            "x",
        ],
        vec!["--workload"],
    ] {
        assert!(args(&bad).is_err(), "{bad:?} must be rejected");
    }
}

#[test]
fn a_report_prints_exactly_its_catalogue() {
    let mut values: BTreeMap<String, f64> = report::end_to_end_catalogue()
        .into_iter()
        .map(|(name, _, _)| (name, 1.5))
        .collect();
    let mut report = Report {
        correct: true,
        attempted: 3,
        failed: 0,
        values: values.clone(),
        notes: vec!["seed=1".into()],
    };
    let text = report.render(false).unwrap();
    let last = text.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(last.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    assert!(
        report.render(true).is_err(),
        "per-layer metrics are missing"
    );

    values.remove("setup_s");
    report.values = values.clone();
    assert!(report.render(false).is_err());
    values.insert("setup_s".into(), f64::NAN);
    report.values = values;
    assert!(report.render(false).is_err());
}

/// The names, units and directions in `BENCHMARK.json` are the ones the
/// code reports.
#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let listed = |section: &str| -> Vec<(String, String, String)> {
        let start = text.find(&format!("\"{section}\"")).unwrap();
        let end = start + text[start..].find(']').unwrap();
        text[start..end]
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).unwrap() + key.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').unwrap() + 1;
                    let close = open + rest[open..].find('"').unwrap();
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let expect = |catalogue: Vec<(String, &str, bool)>| -> Vec<(String, String, String)> {
        catalogue
            .into_iter()
            .map(|(name, unit, higher)| {
                let better = if higher { "higher" } else { "lower" };
                (name, unit.to_string(), better.to_string())
            })
            .collect()
    };
    assert_eq!(listed("end_to_end"), expect(report::end_to_end_catalogue()));
    assert_eq!(listed("per_layer"), expect(report::per_layer_catalogue()));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    for name in &workloads {
        assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
}
