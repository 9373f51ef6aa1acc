//! Cross-backend equivalence: the same query run on the threaded engine and
//! on the virtual-time simulator must agree on everything that is not a
//! clock — result cardinalities and per-operation *logical* activation
//! counts.
//!
//! This is the contract that makes the simulator a valid stand-in for the
//! KSR1: both backends replay the same extended plans with the same logical
//! activation granularity, so swapping `Backend::Threaded` for
//! `Backend::Simulated(..)` changes *when* work happens, never *what* work
//! happens. On real threads, the session's own runtime (`run()`) and a
//! caller-owned one (`submit(&runtime)`) must agree the same way. The threaded engine physically moves tuples in `CacheSize`-sized
//! transport batches, but counts one logical activation per batched tuple —
//! so the equivalence must also hold across cache sizes and consumption
//! strategies, which `batching_never_changes_logical_work` pins down.

use dbs3::prelude::*;
use dbs3_lera::OperatorKind;

/// Where a query runs: the session's own runtime (`run()`), a caller-owned
/// runtime (`submit(&runtime)`), or the simulated KSR1.
#[derive(Clone, Copy)]
enum Target<'r> {
    Session,
    Runtime(&'r Runtime),
    Simulated,
}

fn run_at(query: Query<'_>, target: Target<'_>) -> QueryOutcome {
    match target {
        Target::Session => query.run(),
        Target::Runtime(runtime) => query.submit(runtime).and_then(|handle| handle.wait()),
        Target::Simulated => query.on(Backend::Simulated(SimConfig::ksr1())).run(),
    }
    .unwrap()
}

fn session(a_card: usize, b_card: usize, degree: usize, theta: f64) -> Session {
    let mut session = Session::new();
    let spec = PartitionSpec::on("unique1", degree, 4);
    session
        .load_wisconsin_skewed(&WisconsinConfig::narrow("A", a_card), spec.clone(), theta)
        .unwrap();
    session
        .load_wisconsin(&WisconsinConfig::narrow("Bprime", b_card), spec)
        .unwrap();
    session
}

/// Runs `plan` on both backends and checks cardinalities and per-operation
/// activation counts match. Store operations are skipped: the simulator
/// folds them into their producers.
fn assert_backends_agree(session: &Session, plan: &Plan, threads: usize) {
    let threaded = session.query(plan).threads(threads).run().unwrap();
    // The backend swap is this single `.on(...)` line.
    let simulated = session
        .query(plan)
        .threads(threads)
        .on(Backend::Simulated(SimConfig::ksr1()))
        .run()
        .unwrap();

    assert_eq!(
        threaded.cardinalities,
        simulated.cardinalities,
        "result cardinalities diverge on {}",
        plan.name()
    );
    for node in plan.nodes() {
        if matches!(node.kind, OperatorKind::Store { .. }) {
            continue;
        }
        assert_eq!(
            threaded.metrics.activations(node.id),
            simulated.metrics.activations(node.id),
            "activation counts diverge at {} of {}",
            node.name,
            plan.name()
        );
    }
}

#[test]
fn ideal_join_is_backend_equivalent() {
    let session = session(2_000, 200, 16, 0.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    assert_backends_agree(&session, &plan, 4);
}

#[test]
fn assoc_join_is_backend_equivalent() {
    let session = session(2_000, 200, 16, 0.0);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
    assert_backends_agree(&session, &plan, 4);
}

#[test]
fn skewed_joins_are_backend_equivalent() {
    let session = session(3_000, 300, 20, 1.0);
    for plan in [
        plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop),
        plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop),
    ] {
        assert_backends_agree(&session, &plan, 6);
    }
}

/// The tentpole invariant of activation batching: run the same plans under
/// every consumption-strategy regime (scheduler-picked, forced Random,
/// forced LPT) and at cache sizes 1 (per-tuple transport, the paper's
/// model) and 64 (batched transport), on both backends. Cardinalities and
/// per-operation logical activation counts must never move.
#[test]
fn batching_never_changes_logical_work() {
    let session = session(2_000, 200, 16, 0.0);
    let strategies: [Option<ConsumptionStrategy>; 3] = [
        None,
        Some(ConsumptionStrategy::Random),
        Some(ConsumptionStrategy::Lpt),
    ];
    for plan in [
        plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop),
        plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop),
    ] {
        let mut reference: Option<(Vec<Option<u64>>, usize)> = None;
        for strategy in strategies {
            for cache_size in [1usize, 64] {
                let run = |backend: Backend| {
                    let mut q = session.query(&plan).threads(4).cache_size(cache_size);
                    if let Some(s) = strategy {
                        q = q.strategy(s);
                    }
                    q.on(backend).run().unwrap()
                };
                let threaded = run(Backend::Threaded);
                let simulated = run(Backend::Simulated(SimConfig::ksr1()));

                assert_eq!(
                    threaded.cardinalities,
                    simulated.cardinalities,
                    "cardinalities diverge on {} (strategy {strategy:?}, cache {cache_size})",
                    plan.name()
                );
                let counts: Vec<Option<u64>> = plan
                    .nodes()
                    .iter()
                    .filter(|n| !matches!(n.kind, OperatorKind::Store { .. }))
                    .map(|n| threaded.metrics.activations(n.id))
                    .collect();
                let sim_counts: Vec<Option<u64>> = plan
                    .nodes()
                    .iter()
                    .filter(|n| !matches!(n.kind, OperatorKind::Store { .. }))
                    .map(|n| simulated.metrics.activations(n.id))
                    .collect();
                assert_eq!(
                    counts,
                    sim_counts,
                    "logical activation counts diverge between backends on {} \
                     (strategy {strategy:?}, cache {cache_size})",
                    plan.name()
                );
                // And they are identical across every (strategy, cache size)
                // regime: batch granularity is invisible to logical work.
                let cardinality = threaded.result_cardinality("Result").unwrap();
                match &reference {
                    None => reference = Some((counts, cardinality)),
                    Some((ref_counts, ref_cardinality)) => {
                        assert_eq!(
                            ref_counts,
                            &counts,
                            "logical activation counts depend on the regime on {} \
                             (strategy {strategy:?}, cache {cache_size})",
                            plan.name()
                        );
                        assert_eq!(ref_cardinality, &cardinality);
                    }
                }
            }
        }
    }
}

/// Hash joins at every build-parallelism regime (sequential, 2-shard,
/// 8-shard temporary index builds), on the session runtime, an explicit
/// runtime and the simulator: cardinalities must be identical everywhere,
/// and the two real-thread runs must also agree on per-operation logical
/// activation counts — the partitioned build changes *when* index entries
/// are written, never what a probe returns. (The simulator is excluded from
/// the per-op comparison for hash joins only because it deliberately models
/// index builds as one extra activation per instance; its *result* must
/// still match.)
///
/// Sizing is load-bearing: `build_parallel` falls back to a sequential
/// build below 4_096 rows per shard, so the *inner* relation of both plans
/// is A at 40_000 tuples over 4 fragments (~10_000 per per-instance build)
/// — `build_threads` 2 and 8 genuinely run the partitioned build.
#[test]
fn parallel_index_builds_are_invisible_across_all_backends() {
    /// Pinned reference: (cardinalities per store, per-op activation counts).
    type Pinned = (std::collections::BTreeMap<String, usize>, Vec<Option<u64>>);
    let session = session(40_000, 4_000, 4, 0.0);
    let runtime = Runtime::new(4).unwrap();
    for plan in [
        plans::ideal_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
        plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
    ] {
        let mut reference: Option<Pinned> = None;
        for build_threads in [1usize, 2, 8] {
            for target in [
                Target::Session,
                Target::Runtime(&runtime),
                Target::Simulated,
            ] {
                let query = session.query(&plan).threads(4).build_threads(build_threads);
                let outcome = run_at(query, target);
                let is_engine = outcome.metrics.backend_name() != "simulated";
                let counts: Vec<Option<u64>> = plan
                    .nodes()
                    .iter()
                    .filter(|n| !matches!(n.kind, OperatorKind::Store { .. }))
                    .map(|n| outcome.metrics.activations(n.id))
                    .collect();
                match &reference {
                    None => reference = Some((outcome.cardinalities.clone(), counts)),
                    Some((ref_cards, ref_counts)) => {
                        assert_eq!(
                            ref_cards,
                            &outcome.cardinalities,
                            "cardinalities diverge on {} ({} build threads, {})",
                            plan.name(),
                            build_threads,
                            outcome.metrics.backend_name()
                        );
                        if is_engine {
                            assert_eq!(
                                ref_counts,
                                &counts,
                                "activation counts diverge on {} ({} build threads, {})",
                                plan.name(),
                                build_threads,
                                outcome.metrics.backend_name()
                            );
                        }
                    }
                }
            }
        }
    }
    assert_eq!(runtime.live_queries(), 0);
}

/// Morsel-granularity invisibility: splitting triggered fragments into
/// cache-sized morsels changes which worker scans which rows *when*, never
/// what the query computes or how much logical work it reports. Every
/// morsel size — splitting a fragment into dozens of pieces, an uneven
/// divisor, the default, and "never split" — must produce identical
/// cardinalities and identical per-operation logical activation counts on
/// the session runtime, an explicit runtime and the simulator (only the
/// lead morsel of a fragment carries logical weight, so counts stay pinned
/// to the simulator's one-activation-per-fragment model; the simulated
/// backend ignores the knob entirely).
///
/// Sizing is load-bearing: A partitions into 6_000-row fragments and
/// Bprime into 600-row fragments, so morsel sizes 512 and 1_999 genuinely
/// split the triggered scans of every plan below, while 1_000_000 pins the
/// no-split fallback. The hash-join plans are excluded from the simulator
/// per-op comparison for the same reason as the parallel-build test (the
/// simulator models index builds as one extra activation per instance);
/// the nested-loop plan is compared exactly on all three backends.
#[test]
fn morsel_granularity_is_invisible_across_all_backends() {
    /// Pinned reference: (cardinalities per store, per-op activation counts).
    type Pinned = (std::collections::BTreeMap<String, usize>, Vec<Option<u64>>);
    let session = session(24_000, 2_400, 4, 0.0);
    let runtime = Runtime::new(4).unwrap();
    for (plan, sim_counts_exact) in [
        (
            plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop),
            true,
        ),
        (
            plans::ideal_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
            false,
        ),
        (
            plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
            false,
        ),
    ] {
        let mut reference: Option<Pinned> = None;
        for morsel_rows in [512usize, 1_999, 4_096, 1_000_000] {
            for target in [
                Target::Session,
                Target::Runtime(&runtime),
                Target::Simulated,
            ] {
                let query = session.query(&plan).threads(4).morsel_rows(morsel_rows);
                let outcome = run_at(query, target);
                let is_engine = outcome.metrics.backend_name() != "simulated";
                let counts: Vec<Option<u64>> = plan
                    .nodes()
                    .iter()
                    .filter(|n| !matches!(n.kind, OperatorKind::Store { .. }))
                    .map(|n| outcome.metrics.activations(n.id))
                    .collect();
                match &reference {
                    None => reference = Some((outcome.cardinalities.clone(), counts)),
                    Some((ref_cards, ref_counts)) => {
                        assert_eq!(
                            ref_cards,
                            &outcome.cardinalities,
                            "cardinalities diverge on {} (morsel_rows {}, {})",
                            plan.name(),
                            morsel_rows,
                            outcome.metrics.backend_name()
                        );
                        if is_engine || sim_counts_exact {
                            assert_eq!(
                                ref_counts,
                                &counts,
                                "logical activation counts diverge on {} (morsel_rows {}, {})",
                                plan.name(),
                                morsel_rows,
                                outcome.metrics.backend_name()
                            );
                        }
                    }
                }
            }
        }
    }
    assert_eq!(runtime.live_queries(), 0);
}

/// Prepared-query and fragment-index caching must be *invisible* to
/// results: the first (cold) execution populates the caches, every later
/// (warm) execution of the same plan is served by them — and cardinalities
/// plus per-operation logical activation counts must be bit-identical
/// between the cold run and warm runs on the session runtime, an explicit
/// runtime and the simulator. The warm real-thread runs' own index counters
/// prove the warm path actually reused the indexes rather than
/// accidentally rebuilding.
#[test]
fn cached_setup_is_identical_to_cold_setup_across_all_backends() {
    /// Pinned reference: (cardinalities per store, per-op activation counts).
    type Pinned = (std::collections::BTreeMap<String, usize>, Vec<Option<u64>>);
    let session = session(8_000, 800, 8, 0.0);
    let runtime = Runtime::new(4).unwrap();
    for plan in [
        plans::ideal_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
        plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
    ] {
        let mut reference: Option<Pinned> = None;
        // Round 0 is cold for this (fresh) session's generations; rounds
        // 1..3 repeat the identical query and must be served by the caches.
        for round in 0..3 {
            for target in [
                Target::Session,
                Target::Runtime(&runtime),
                Target::Simulated,
            ] {
                let outcome = run_at(session.query(&plan).threads(4), target);
                // The per-query cache signal of a warm run is its fragment
                // index lookups: the join operators make them during
                // execution (the plan-cache hit happens in `prepare`, before
                // the query exists).
                if round > 0 {
                    if let Some(stats) = outcome.metrics.cache_stats() {
                        assert!(
                            stats.index.hits >= 1,
                            "warm round {round} of {} rebuilt its fragment indexes: {stats:?}",
                            plan.name()
                        );
                    }
                }
                let counts: Vec<Option<u64>> = plan
                    .nodes()
                    .iter()
                    .filter(|n| !matches!(n.kind, OperatorKind::Store { .. }))
                    .map(|n| outcome.metrics.activations(n.id))
                    .collect();
                let is_engine = outcome.metrics.backend_name() != "simulated";
                match &reference {
                    None => reference = Some((outcome.cardinalities.clone(), counts)),
                    Some((ref_cards, ref_counts)) => {
                        assert_eq!(
                            ref_cards,
                            &outcome.cardinalities,
                            "cached round {round} changed cardinalities on {} ({})",
                            plan.name(),
                            outcome.metrics.backend_name()
                        );
                        if is_engine {
                            assert_eq!(
                                ref_counts,
                                &counts,
                                "cached round {round} changed activation counts on {} ({})",
                                plan.name(),
                                outcome.metrics.backend_name()
                            );
                        }
                    }
                }
            }
        }
    }
    assert_eq!(runtime.live_queries(), 0);
}

/// Generation-based invalidation end-to-end: replacing a relation in the
/// catalog must route the next execution of a cached plan to a *fresh*
/// build over the new data — correct new results, never the stale index —
/// and the stale entries must leave the caches as evictions, observable in
/// the process-wide counters.
#[test]
fn catalog_mutation_invalidates_cached_plans_and_indexes() {
    let mut session = session(2_000, 200, 16, 0.0);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    // Warm the caches on the original catalog (A is the build side).
    let before = session.query(&plan).threads(4).run().unwrap();
    assert_eq!(before.result_cardinality("Result"), Some(200));
    let _ = session.query(&plan).threads(4).run().unwrap();

    // Replace the *probe* side with twice the tuples: the correct result
    // doubles. A stale prepared plan would be rejected; a stale shared
    // index of A would still be correct here, so also replace A — a stale
    // A-index would now probe against vanished data and change the result.
    let baseline = dbs3::cache_stats();
    let spec = PartitionSpec::on("unique1", 16, 4);
    let regenerate = |name: &str, card: usize| {
        let relation = WisconsinGenerator::new()
            .generate(&WisconsinConfig::narrow(name, card))
            .unwrap();
        PartitionedRelation::from_relation(&relation, spec.clone()).unwrap()
    };
    session.catalog_mut().replace(regenerate("Bprime", 400));
    session.catalog_mut().replace(regenerate("A", 4_000));

    let after = session.query(&plan).threads(4).run().unwrap();
    assert_eq!(
        after.result_cardinality("Result"),
        Some(400),
        "mutated catalog must be served by fresh builds, not stale caches"
    );
    let delta = dbs3::cache_stats().since(&baseline);
    assert!(
        delta.plan.evictions >= 1,
        "the stale prepared plan must be evicted: {delta:?}"
    );
    assert!(
        delta.plan.misses >= 1 && delta.index.misses >= 1,
        "the first post-mutation run must rebuild: {delta:?}"
    );

    // And the re-warmed state is served again: a second run hits.
    let rewarmed = session.query(&plan).threads(4).run().unwrap();
    assert_eq!(rewarmed.result_cardinality("Result"), Some(400));
    let stats = rewarmed.metrics.cache_stats().expect("threaded metrics");
    assert!(stats.index.hits >= 1, "re-warmed run must hit: {stats:?}");
}

/// Two sessions register different data under the same relation names and
/// take turns running the same warm hash join. Each relation owns its
/// fragment indexes, so neither session can evict or see the other's: every
/// warm query reuses its own indexes, and every result matches its own
/// session's reference join.
#[test]
fn sessions_sharing_relation_names_keep_their_own_indexes() {
    const ROUNDS: usize = 4;
    let sessions = [session(2_000, 200, 8, 0.0), session(3_000, 300, 8, 0.0)];
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let expected: Vec<usize> = sessions
        .iter()
        .map(|s| {
            let a = s.catalog().get("A").unwrap().reassemble();
            let b = s.catalog().get("Bprime").unwrap().reassemble();
            b.reference_join(&a, "unique1", "unique1").unwrap().len()
        })
        .collect();
    assert_ne!(expected[0], expected[1], "the sessions hold different data");

    // Strict alternation: in phase p of every round only thread p runs, and
    // both threads meet at the barrier after each phase. Nothing asserts
    // inside the threads, so a failure cannot strand the other at the
    // barrier.
    let barrier = std::sync::Barrier::new(2);
    let runs: Vec<Vec<(Option<usize>, Option<CacheStats>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(me, session)| {
                let (barrier, plan) = (&barrier, &plan);
                scope.spawn(move || {
                    let mut runs = Vec::new();
                    for _ in 0..ROUNDS {
                        for phase in 0..2 {
                            if phase == me {
                                let outcome = session.query(plan).threads(2).run().ok();
                                runs.push((
                                    outcome
                                        .as_ref()
                                        .and_then(|o| o.result_cardinality("Result")),
                                    outcome.and_then(|o| o.metrics.cache_stats()),
                                ));
                            }
                            barrier.wait();
                        }
                    }
                    runs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (me, runs) in runs.iter().enumerate() {
        for (round, (cardinality, stats)) in runs.iter().enumerate() {
            assert_eq!(
                *cardinality,
                Some(expected[me]),
                "session {me} round {round} returned another session's answer"
            );
            let stats = stats.expect("threaded metrics");
            if round > 0 {
                assert!(
                    stats.index.hits >= 1,
                    "session {me} warm round {round} lost its indexes: {stats:?}"
                );
            }
        }
    }
}

#[test]
fn selection_is_backend_equivalent_on_cardinality() {
    let session = session(2_000, 200, 10, 0.0);
    let plan = plans::selection("A", Predicate::one_in("ten", 10), "Selected");
    let threaded = session.query(&plan).threads(3).run().unwrap();
    let simulated = session
        .query(&plan)
        .threads(3)
        .on(Backend::Simulated(SimConfig::ksr1()))
        .run()
        .unwrap();
    assert_eq!(threaded.cardinalities, simulated.cardinalities);
    assert_eq!(threaded.result_cardinality("Selected"), Some(200));
}

#[test]
fn shared_metric_accessors_are_populated_on_both_backends() {
    let session = session(2_000, 200, 16, 0.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let runtime = Runtime::new(4).unwrap();
    for target in [Target::Runtime(&runtime), Target::Simulated] {
        let outcome = run_at(session.query(&plan).threads(4), target);
        assert!(outcome.elapsed() > std::time::Duration::ZERO);
        assert!(outcome.metrics.total_activations() > 0);
        assert!(outcome.metrics.worst_imbalance() >= 1.0);
        assert!(outcome.metrics.total_threads() >= 4);
    }
}
