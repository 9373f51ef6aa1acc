//! Query-setup caching: the process-wide prepared-plan cache and the
//! counters of the relation-owned fragment indexes.
//!
//! Under real traffic the same plan shapes repeat and concurrent queries
//! hash-join the *same* relations. Two mechanisms make that setup ~free on
//! repeat:
//!
//! * the **plan cache** maps a content hash of (plan structure, scheduler
//!   options, cost parameters) to the expanded [`ExtendedPlan`] and built
//!   [`ExecutionSchedule`] (a [`PreparedPlan`]). Every [`Catalog`]
//!   mutation stamps the touched relation with a process-wide unique
//!   generation; an entry records the generations it was derived from, and
//!   a lookup that finds a stale entry evicts it and reports a miss.
//!   Capacity is bounded with LRU eviction on top;
//! * the **fragment indexes** belong to the relation itself
//!   ([`PartitionedRelation::fragment_index`]): each (fragment, column)
//!   index is built by the first join that probes it and shared by every
//!   later query over the same relation. A registered relation is
//!   immutable, so its indexes need no key, generation or eviction; they
//!   are freed with the relation when the catalog replaces it.
//!
//! [`cache_stats`] reports process-wide hit/miss/evict counters of both;
//! each query's own index lookups are reported in its
//! [`ExecutionMetrics::caches`](crate::ExecutionMetrics).
//!
//! Fault points [`faults::points::CACHE_LOOKUP`] and
//! [`faults::points::CACHE_BUILD`] cover both paths: a lookup fault
//! bypasses the cache (an uncached build is always correct — faults may
//! fail or slow queries, never falsify them), a build fault escalates to a
//! panic contained by the worker's `catch_unwind`.

use crate::faults::{self, points, FaultAction};
use crate::schedule::{ExecutionSchedule, Scheduler, SchedulerOptions};
use crate::Result;
use dbs3_lera::{ContentHasher, CostParameters, ExtendedPlan, OperatorKind, OuterInput, Plan};
use dbs3_storage::{Catalog, HashIndex, PartitionedRelation};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bounded capacity of the plan cache.
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// Hit/miss/evict counters of one cache. Monotonic over the process
/// lifetime — consumers subtract snapshots to meter a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered without computing the value.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Entries removed — stale generations and LRU capacity overflow alike.
    pub evictions: u64,
}

impl CacheCounters {
    /// Hits as a fraction of all lookups; 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// Snapshot of both query-setup caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Prepared-plan cache (expanded plans + schedules).
    pub plan: CacheCounters,
    /// Fragment-index lookups: one per (query, join instance). A lookup
    /// that builds the index is a miss, any other a hit. `evictions` is
    /// always 0: an index is never evicted, it lives and dies with the
    /// relation that owns it.
    pub index: CacheCounters,
}

impl CacheStats {
    /// Counter-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            plan: self.plan.since(&earlier.plan),
            index: self.index.since(&earlier.index),
        }
    }
}

/// A fully expanded and scheduled plan, ready for repeated submission.
///
/// Holds everything [`Runtime::submit_prepared`](crate::Runtime::submit_prepared)
/// needs that does not depend on live query state: the plan, its extended
/// view and the execution schedule, plus the catalog generations they were
/// derived from (so staleness is a cheap per-relation comparison, not a
/// re-expansion).
#[derive(Debug)]
pub struct PreparedPlan {
    plan: Plan,
    extended: ExtendedPlan,
    schedule: ExecutionSchedule,
    generations: Vec<(String, u64)>,
    fingerprint: u64,
}

impl PreparedPlan {
    /// The simple-view plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The expanded (per-instance) view.
    pub fn extended(&self) -> &ExtendedPlan {
        &self.extended
    }

    /// The execution schedule built for the options this plan was prepared
    /// with.
    pub fn schedule(&self) -> &ExecutionSchedule {
        &self.schedule
    }

    /// The plan's structural content hash.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether every relation this preparation was derived from still has
    /// the same generation in `catalog`. A false return means the catalog
    /// mutated underneath: re-[`prepare`] (cheap — the cache evicts the
    /// stale entry and expands fresh).
    pub fn is_current(&self, catalog: &Catalog) -> bool {
        self.generations
            .iter()
            .all(|(name, generation)| catalog.generation(name) == Some(*generation))
    }
}

/// Key of a plan-cache entry: content hashes only, so equal-meaning inputs
/// collide onto one entry no matter how they were built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    plan: u64,
    options: u64,
}

#[derive(Debug)]
struct PlanEntry {
    prepared: Arc<PreparedPlan>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct PlanCacheInner {
    entries: HashMap<PlanKey, PlanEntry>,
    counters: CacheCounters,
    tick: u64,
}

#[derive(Debug, Default)]
struct PlanCache {
    inner: Mutex<PlanCacheInner>,
}

impl PlanCache {
    /// Looks up `key`, validating the stored generations against `catalog`.
    /// A stale entry is evicted and reported as a miss.
    fn lookup(&self, key: PlanKey, catalog: &Catalog) -> Option<Arc<PreparedPlan>> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key) {
            Some(entry) if entry.prepared.is_current(catalog) => {
                entry.last_used = tick;
                let prepared = Arc::clone(&entry.prepared);
                inner.counters.hits += 1;
                Some(prepared)
            }
            Some(_) => {
                // Generation mismatch: the catalog mutated since this entry
                // was built. Evict immediately — stale entries must be
                // unreachable, not merely unlucky.
                inner.entries.remove(&key);
                inner.counters.evictions += 1;
                inner.counters.misses += 1;
                None
            }
            None => {
                inner.counters.misses += 1;
                None
            }
        }
    }

    fn insert(&self, key: PlanKey, prepared: Arc<PreparedPlan>) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(
            key,
            PlanEntry {
                prepared,
                last_used: tick,
            },
        );
        while inner.entries.len() > PLAN_CACHE_CAPACITY {
            let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            inner.entries.remove(&oldest);
            inner.counters.evictions += 1;
        }
    }
}

fn plan_cache() -> &'static PlanCache {
    static PLAN_CACHE: OnceLock<PlanCache> = OnceLock::new();
    PLAN_CACHE.get_or_init(PlanCache::default)
}

/// Hit and miss counts of fragment-index lookups: process-wide in
/// [`INDEX_LOOKUPS`], per join operator in each bound operator's tally.
#[derive(Debug)]
pub(crate) struct IndexTally {
    // ordering(hits): Relaxed — a statistics counter; it publishes no other
    // memory, and readers take it after the query completed or as an
    // approximate process-wide total.
    hits: AtomicU64,
    // ordering(misses): Relaxed — same as `hits`.
    misses: AtomicU64,
}

impl IndexTally {
    pub(crate) const fn new() -> Self {
        IndexTally {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn record(&self, built: bool) {
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The tally as cache counters (`evictions` is always 0).
    pub(crate) fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: 0,
        }
    }
}

/// Every fragment-index lookup of the process, for [`cache_stats`].
static INDEX_LOOKUPS: IndexTally = IndexTally::new();

/// Snapshot of both caches' counters.
pub fn cache_stats() -> CacheStats {
    let plan = plan_cache()
        .inner
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .counters;
    CacheStats {
        plan,
        index: INDEX_LOOKUPS.counters(),
    }
}

/// A fired lookup fault means "pretend the cache is not there": the caller
/// computes privately, which can only cost time. Delay sleeps, panic
/// panics (containment is the caller's concern), error/drop bypass.
fn lookup_fault_bypasses() -> bool {
    match faults::hit(points::CACHE_LOOKUP) {
        None => false,
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            false
        }
        Some(FaultAction::Error) | Some(FaultAction::Drop) => true,
        Some(FaultAction::Panic) => {
            // allow-panic: injected fault — exercises the same containment
            // as a real panic at this point (worker catch_unwind / submit
            // path unwinding); faults may fail queries, never falsify them.
            panic!("fault injected: {}", points::CACHE_LOOKUP)
        }
    }
}

/// Build faults have nothing safe to "drop" or type as an error at this
/// depth — escalate everything but delay to a panic, exactly like
/// `engine.queue.push` (the worker's `catch_unwind` turns it into a typed
/// `WorkerPanicked`; the relation's index slot stays empty and the next
/// requester builds).
fn honor_build_fault() {
    match faults::hit(points::CACHE_BUILD) {
        None => {}
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(_) => {
            // allow-panic: injected fault; error/drop escalate on purpose —
            // a silently skipped build has no typed-error channel here, and
            // the panic is contained into WorkerPanicked.
            panic!("fault injected: {}", points::CACHE_BUILD)
        }
    }
}

/// Fetches (or builds) the hash index over `column` of one fragment of
/// `relation`, counting the lookup in `tally` and in [`cache_stats`]. A
/// fired lookup fault builds a private index and counts nothing.
pub(crate) fn fragment_index(
    relation: &PartitionedRelation,
    fragment: usize,
    column: usize,
    shards: usize,
    tally: &IndexTally,
) -> dbs3_storage::Result<Arc<HashIndex>> {
    if lookup_fault_bypasses() {
        let tuples = relation.fragment(fragment)?.tuples();
        return Ok(Arc::new(HashIndex::build_parallel(tuples, column, shards)));
    }
    let (index, built) = relation.fragment_index(fragment, column, shards, honor_build_fault)?;
    tally.record(built);
    INDEX_LOOKUPS.record(built);
    Ok(index)
}

fn write_cost(h: &mut ContentHasher, cost: &CostParameters) {
    h.write_f64(cost.scan_tuple);
    h.write_f64(cost.move_tuple);
    h.write_f64(cost.nested_loop_probe_per_inner_tuple);
    h.write_f64(cost.build_per_tuple);
    h.write_f64(cost.indexed_probe);
    h.write_f64(cost.store_tuple);
    h.write_f64(cost.queue_creation);
}

fn write_option_usize(h: &mut ContentHasher, v: Option<usize>) {
    match v {
        None => h.write_u64(0),
        Some(n) => {
            h.write_u64(1);
            h.write_usize(n);
        }
    }
}

/// Content hash of everything besides the plan that shapes a preparation:
/// the full scheduler options and the cost parameters.
fn options_hash(options: &SchedulerOptions, cost: &CostParameters) -> u64 {
    let mut h = ContentHasher::new();
    write_option_usize(&mut h, options.total_threads);
    h.write_usize(options.max_threads);
    h.write_f64(options.work_per_thread);
    h.write_usize(options.queue_capacity);
    h.write_usize(options.cache_size);
    h.write_u64(match options.strategy_override {
        None => 0,
        Some(crate::strategy::ConsumptionStrategy::Random) => 1,
        Some(crate::strategy::ConsumptionStrategy::Lpt) => 2,
    });
    h.write_f64(options.lpt_skew_threshold);
    h.write_u64(options.discard_results as u64);
    write_option_usize(&mut h, options.build_threads);
    write_option_usize(&mut h, options.morsel_rows);
    write_cost(&mut h, cost);
    h.finish()
}

/// The relations a plan reads, with their current catalog generations —
/// what a preparation of this (plan, catalog) pair depends on.
fn referenced_generations(catalog: &Catalog, plan: &Plan) -> Vec<(String, u64)> {
    let mut names: Vec<&str> = Vec::new();
    for node in plan.nodes() {
        if let Some(rel) = node.kind.associated_relation() {
            names.push(rel);
        }
        if let OperatorKind::Join {
            outer: OuterInput::Fragment { relation },
            ..
        } = &node.kind
        {
            names.push(relation);
        }
    }
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| (name.to_string(), catalog.generation(name).unwrap_or(0)))
        .collect()
}

/// Prepares a plan for execution: expansion + scheduling, answered from the
/// plan cache when this (plan, options, cost) shape was prepared before and
/// the referenced relations are unchanged.
pub fn prepare(
    catalog: &Catalog,
    plan: &Plan,
    options: &SchedulerOptions,
    cost: &CostParameters,
) -> Result<Arc<PreparedPlan>> {
    let fingerprint = plan.content_hash();
    let key = PlanKey {
        plan: fingerprint,
        options: options_hash(options, cost),
    };
    let bypass = lookup_fault_bypasses();
    let cache = plan_cache();
    if !bypass {
        if let Some(prepared) = cache.lookup(key, catalog) {
            return Ok(prepared);
        }
    }
    let extended = ExtendedPlan::from_plan(plan, catalog, cost)?;
    let schedule = Scheduler::build(plan, &extended, options)?;
    let prepared = Arc::new(PreparedPlan {
        plan: plan.clone(),
        extended,
        schedule,
        generations: referenced_generations(catalog, plan),
        fingerprint,
    });
    if !bypass {
        cache.insert(key, Arc::clone(&prepared));
    }
    Ok(prepared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs3_storage::{PartitionSpec, WisconsinConfig, WisconsinGenerator};

    fn relation(name: &str, cardinality: usize, degree: usize) -> PartitionedRelation {
        let rel = WisconsinGenerator::new()
            .generate(&WisconsinConfig::narrow(name, cardinality))
            .unwrap();
        PartitionedRelation::from_relation(&rel, PartitionSpec::on("unique1", degree, 2)).unwrap()
    }

    fn catalog(a_card: usize, b_card: usize, degree: usize) -> Catalog {
        let mut cat = Catalog::new();
        cat.register(relation("A", a_card, degree)).unwrap();
        cat.register(relation("Bprime", b_card, degree)).unwrap();
        cat
    }

    fn fig14() -> Plan {
        dbs3_lera::plans::assoc_join("Bprime", "A", "unique1", dbs3_lera::JoinAlgorithm::Hash)
    }

    #[test]
    fn prepare_hits_on_repeat_and_misses_on_new_generations() {
        let cat = catalog(600, 60, 4);
        let plan = fig14();
        let options = SchedulerOptions::default().with_total_threads(2);
        let cost = CostParameters::default();

        let before = cache_stats();
        let first = prepare(&cat, &plan, &options, &cost).unwrap();
        let second = prepare(&cat, &plan, &options, &cost).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "repeat must share one entry");
        assert!(first.is_current(&cat));
        let after = cache_stats().since(&before);
        assert!(after.plan.hits >= 1, "{after:?}");

        // A mutated catalog makes the entry stale: fresh preparation, old
        // entry evicted.
        let mut mutated = cat.clone();
        mutated.replace(relation("A", 600, 4));
        assert!(!first.is_current(&mutated));
        let evictions_before = cache_stats().plan.evictions;
        let third = prepare(&mutated, &plan, &options, &cost).unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        assert!(cache_stats().plan.evictions > evictions_before);
    }

    #[test]
    fn distinct_options_get_distinct_entries() {
        let cat = catalog(500, 50, 4);
        let plan = fig14();
        let cost = CostParameters::default();
        let two = prepare(
            &cat,
            &plan,
            &SchedulerOptions::default().with_total_threads(2),
            &cost,
        )
        .unwrap();
        let four = prepare(
            &cat,
            &plan,
            &SchedulerOptions::default().with_total_threads(4),
            &cost,
        )
        .unwrap();
        assert!(!Arc::ptr_eq(&two, &four));
        assert_eq!(two.fingerprint(), four.fingerprint());
        assert_ne!(
            two.schedule().total_threads(),
            four.schedule().total_threads()
        );
    }

    #[test]
    fn cost_parameters_key_the_preparation() {
        let cat = catalog(300, 30, 2);
        let plan = fig14();
        let options = SchedulerOptions::default().with_total_threads(2);
        let cost = CostParameters::default();
        let a = prepare(&cat, &plan, &options, &cost).unwrap();
        let other_cost = CostParameters {
            scan_tuple: cost.scan_tuple * 2.0,
            ..cost
        };
        let b = prepare(&cat, &plan, &options, &other_cost).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn fragment_index_counts_a_build_as_a_miss_and_a_reuse_as_a_hit() {
        let rel = relation("A", 400, 2);
        let tally = IndexTally::new();
        let before = cache_stats().index;
        let first = fragment_index(&rel, 0, 0, 1, &tally).unwrap();
        let again = fragment_index(&rel, 0, 0, 1, &tally).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "one build, shared Arc");
        assert_eq!(
            tally.counters(),
            CacheCounters {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        let global = cache_stats().index.since(&before);
        assert!(global.hits >= 1 && global.misses >= 1, "{global:?}");

        // An equal relation built separately owns separate indexes.
        let twin = relation("A", 400, 2);
        let fresh = fragment_index(&twin, 0, 0, 1, &tally).unwrap();
        assert!(!Arc::ptr_eq(&first, &fresh));
        assert_eq!(tally.counters().misses, 2);
    }
}
