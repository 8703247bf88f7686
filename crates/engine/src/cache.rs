//! Process-wide query-setup caches: prepared plans, and the counters of the
//! build-side hash indexes that live in their fragments.
//!
//! Under real traffic the same plan shapes repeat and concurrent queries
//! hash-join the *same* relations, yet historically every submission
//! re-expanded the plan, re-ran the scheduler and rebuilt every build-side
//! [`HashIndex`] from scratch. This module makes that setup ~free on repeat:
//!
//! * the **plan cache** maps a plan's [`Plan::content_hash`] and the
//!   [`SchedulerOptions`] to the expanded [`ExtendedPlan`] and built
//!   [`ExecutionSchedule`] (a [`PreparedPlan`]). A lookup is a hit only
//!   when the stored plan and [`CostParameters`] also equal the request's:
//!   a 64-bit hash can collide, and an entry handed to another plan would
//!   run that plan's schedule — a wrong answer, not a slow one. A hash
//!   match with unequal values is a miss whose preparation replaces the
//!   entry. The key holds no copy of the plan: the entry's [`PreparedPlan`]
//!   owns one already;
//! * **indexes live in their fragments**: [`fragment_index`] resolves the
//!   build cell a [`Fragment`] owns for each column. The first requester
//!   builds into it, concurrent requesters *wait on the build in flight*
//!   instead of duplicating it, and later requesters clone the `Arc`. A
//!   fragment is immutable, so its index can never go stale; it is dropped
//!   with the fragment, and a [`Catalog::replace`] hands it on to an equal
//!   fragment of the new version.
//!
//! **Plans are invalidated by generation, not by flushing**: every
//! [`Catalog`] mutation stamps the touched relation with a process-wide
//! unique generation, prepared plans record the generations they were
//! derived from, and a lookup that finds a stale entry evicts it and reports
//! a miss. Capacity is bounded with LRU eviction on top. The hit/miss/evict
//! counters are process-wide too: a caller meters a phase as
//! `cache_stats().since(&before)` ([`cache_stats`], [`CacheStats::since`]),
//! as the serve stats path does over a server's lifetime.
//!
//! `static CACHES` — the plan cache and the two index counters — is, with
//! the fault registry, the engine's only process-global: generations are
//! unique across *all* catalogs, so plans from unrelated sessions can never
//! be confused, and cross-connection reuse in the serve layer falls out for
//! free.
//!
//! Fault points [`FaultPoint::CacheLookup`] and [`FaultPoint::CacheBuild`]
//! cover both paths: a lookup fault bypasses the plan cache or the
//! fragment's cell (an uncached build is always correct — faults may fail
//! or slow queries, never falsify them), a build fault escalates to a panic
//! contained by the worker's `catch_unwind` and leaves the fragment's cell
//! empty for the next requester to build into.

use crate::faults::{self, FaultAction, FaultPoint};
use crate::schedule::{ExecutionSchedule, Scheduler, SchedulerOptions};
use crate::Result;
use dbs3_lera::{CostParameters, ExtendedPlan, OperatorKind, OuterInput, Plan};
use dbs3_storage::{Catalog, Fragment, HashIndex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Bounded capacity of the plan cache, in prepared plans.
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// Hit/miss/evict counters of one cache. Monotonic over the process
/// lifetime — consumers subtract snapshots to meter a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from the cache (including awaited in-flight builds).
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Entries removed — stale generations and LRU capacity overflow alike.
    /// Always 0 for indexes: an index is dropped with its fragment, not
    /// evicted.
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

/// Snapshot of the plan-cache and index counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Prepared-plan cache (expanded plans + schedules).
    pub plan: CacheCounters,
    /// Build-side hash indexes resolved through [`fragment_index`]: a miss
    /// built the index, a hit found it built or waited for the build in
    /// flight. Evictions are 0.
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
/// Holds everything
/// [`Runtime::submit_prepared`](crate::Runtime::submit_prepared) needs that
/// does not depend on live query state: the plan, its extended view and the
/// execution schedule, plus the catalog generations they were derived from
/// (so staleness is a cheap per-relation comparison, not a re-expansion)
/// and the cost parameters of the expansion (which a cache hit compares).
#[derive(Debug)]
pub struct PreparedPlan {
    plan: Plan,
    extended: ExtendedPlan,
    schedule: ExecutionSchedule,
    generations: Vec<(String, u64)>,
    cost: CostParameters,
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

/// Key of a plan-cache entry: the plan's content hash and the options, so
/// equal requests meet at one entry no matter how they were built. Equal
/// keys do not make equal requests: a hit also compares the entry's plan
/// and cost with the request's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    plan: u64,
    options: SchedulerOptions,
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
    /// Looks up `key` for `plan` prepared with `cost`, validating the stored
    /// generations against `catalog`. An entry for another plan or cost is
    /// a miss (the caller's insert replaces it); a stale entry is evicted
    /// and reported as a miss.
    fn lookup(
        &self,
        key: PlanKey,
        plan: &Plan,
        cost: &CostParameters,
        catalog: &Catalog,
    ) -> Option<Arc<PreparedPlan>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key) {
            Some(entry) if entry.prepared.plan != *plan || entry.prepared.cost != *cost => {
                inner.counters.misses += 1;
                None
            }
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
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
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

#[derive(Debug, Default)]
struct Caches {
    plan: PlanCache,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
}

static CACHES: OnceLock<Caches> = OnceLock::new();

fn caches() -> &'static Caches {
    CACHES.get_or_init(Caches::default)
}

/// Snapshot of the plan-cache and index counters.
pub fn cache_stats() -> CacheStats {
    let caches = caches();
    let plan = {
        let inner = caches
            .plan
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inner.counters
    };
    // ordering: Relaxed — monotonic tallies read for reporting only.
    let index = CacheCounters {
        hits: caches.index_hits.load(Ordering::Relaxed),
        misses: caches.index_misses.load(Ordering::Relaxed),
        evictions: 0,
    };
    CacheStats { plan, index }
}

/// Drops every prepared plan (counters keep accumulating). Benchmarks call
/// this between tiers so a warm plan doesn't distort an unrelated
/// measurement. Indexes are not cached here: they go with their fragments.
pub fn clear_caches() {
    let mut inner = caches()
        .plan
        .inner
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    inner.entries.clear();
}

/// A fired lookup fault means "pretend the cache is not there": the caller
/// computes privately, which can only cost time. Delay sleeps, panic
/// panics (containment is the caller's concern), error/drop bypass.
fn lookup_fault_bypasses() -> bool {
    match faults::hit(FaultPoint::CacheLookup) {
        None => false,
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            false
        }
        Some(FaultAction::Error) | Some(FaultAction::Drop) => true,
        #[expect(
            clippy::panic,
            reason = "injected fault: exercises the containment of a real panic here (the \
                      worker's catch_unwind, the submit path's unwinding); faults may fail \
                      queries, never falsify them"
        )]
        Some(FaultAction::Panic) => panic!("fault injected: {}", FaultPoint::CacheLookup),
    }
}

/// Build faults have nothing safe to "drop" or type as an error at this
/// depth — escalate everything but delay to a panic, exactly like
/// `engine.queue.push` (the worker's `catch_unwind` turns it into a typed
/// `WorkerPanicked`; the cell stays empty and the next requester, a waiter
/// included, builds into it).
fn honor_build_fault() {
    match faults::hit(FaultPoint::CacheBuild) {
        None => {}
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        #[expect(
            clippy::panic,
            reason = "injected fault; error and drop escalate on purpose: a silently skipped \
                      build has no typed-error channel here, and the panic is contained into \
                      WorkerPanicked"
        )]
        Some(_) => panic!("fault injected: {}", FaultPoint::CacheBuild),
    }
}

/// Resolves the hash index on `column` of `fragment` — the paper's
/// temporary index, built on the fly by the first join that probes it.
///
/// The first requester builds into the fragment's cell
/// ([`Fragment::index_cell`]); concurrent requesters wait for that build,
/// later ones clone the `Arc`. A build that panics leaves the cell empty,
/// and the next requester builds into it again (through the
/// `engine.cache.build` fault point again).
pub fn fragment_index(fragment: &Fragment, column: usize) -> Arc<HashIndex> {
    resolve(fragment.index_cell(column), || {
        HashIndex::build_for_fragment(fragment, column)
    })
}

/// [`fragment_index`] over any build cell: honours both fault points and
/// counts a miss if this call ran `build`, a hit otherwise.
fn resolve(cell: &OnceLock<Arc<HashIndex>>, build: impl FnOnce() -> HashIndex) -> Arc<HashIndex> {
    if lookup_fault_bypasses() {
        return Arc::new(build());
    }
    let mut built = false;
    let index = Arc::clone(cell.get_or_init(|| {
        honor_build_fault();
        let index = Arc::new(build());
        built = true;
        index
    }));
    let caches = caches();
    let counter = if built {
        &caches.index_misses
    } else {
        &caches.index_hits
    };
    // ordering: Relaxed — a tally; the index itself is published by the
    // OnceLock.
    counter.fetch_add(1, Ordering::Relaxed);
    index
}

/// The relations a plan reads, with their current catalog generations —
/// what a cache entry derived from this (plan, catalog) pair depends on.
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
/// plan cache when an equal (plan, options, cost) request was prepared
/// before and the referenced relations are unchanged.
pub fn prepare(
    catalog: &Catalog,
    plan: &Plan,
    options: &SchedulerOptions,
    cost: &CostParameters,
) -> Result<Arc<PreparedPlan>> {
    let key = PlanKey {
        plan: plan.content_hash(),
        options: *options,
    };
    let bypass = lookup_fault_bypasses();
    let cache = &caches().plan;
    if !bypass {
        if let Some(prepared) = cache.lookup(key, plan, cost, catalog) {
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
        cost: *cost,
    });
    if !bypass {
        cache.insert(key, Arc::clone(&prepared));
    }
    Ok(prepared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs3_storage::{PartitionSpec, PartitionedRelation, WisconsinConfig, WisconsinGenerator};

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

    fn fig14(cat: &Catalog) -> (Plan, u64) {
        let plan =
            dbs3_lera::plans::assoc_join("Bprime", "A", "unique1", dbs3_lera::JoinAlgorithm::Hash);
        let generation = cat.generation("A").unwrap();
        (plan, generation)
    }

    #[test]
    fn prepare_hits_on_repeat_and_misses_on_new_generations() {
        let cat = catalog(600, 60, 4);
        let (plan, _) = fig14(&cat);
        let options = SchedulerOptions::default().with_total_threads(2);
        let cost = CostParameters::default();

        let before = cache_stats();
        let first = prepare(&cat, &plan, &options, &cost).unwrap();
        // An equal plan built apart.
        let second = prepare(&cat, &fig14(&cat).0, &options, &cost).unwrap();
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
        let (plan, _) = fig14(&cat);
        let cost = CostParameters::default();
        let base_options = SchedulerOptions::default().with_total_threads(2);
        let base = prepare(&cat, &plan, &base_options, &cost).unwrap();
        // Each row changes exactly one field: the key must see it.
        let variants = [
            ("total_threads", base_options.with_total_threads(4)),
            (
                "queue_capacity",
                SchedulerOptions {
                    queue_capacity: base_options.queue_capacity * 2,
                    ..base_options
                },
            ),
            (
                "cache_size",
                SchedulerOptions {
                    cache_size: base_options.cache_size * 2,
                    ..base_options
                },
            ),
            (
                "discard_results",
                SchedulerOptions {
                    discard_results: true,
                    ..base_options
                },
            ),
        ];
        for (field, options) in variants {
            assert_ne!(options, base_options, "{field} row changes nothing");
            let prepared = prepare(&cat, &plan, &options, &cost).unwrap();
            assert!(
                !Arc::ptr_eq(&base, &prepared),
                "changing {field} alone must prepare a new plan"
            );
            assert_eq!(prepared.plan(), &plan);
        }
        let four = prepare(&cat, &plan, &base_options.with_total_threads(4), &cost).unwrap();
        assert_ne!(
            base.schedule().query_threads(),
            four.schedule().query_threads()
        );
    }

    #[test]
    fn a_renamed_node_or_another_cost_gets_its_own_entry() {
        let cat = catalog(500, 50, 4);
        let (plan, _) = fig14(&cat);
        // Options no other test here uses, so parallel tests preparing the
        // same plan on other catalogs cannot evict these entries.
        let options = SchedulerOptions {
            queue_capacity: 701,
            ..SchedulerOptions::default().with_total_threads(2)
        };
        let cost = CostParameters::default();
        let base = prepare(&cat, &plan, &options, &cost).unwrap();

        let mut nodes = plan.nodes().to_vec();
        nodes[1].name.push_str("-renamed");
        let renamed = Plan::from_nodes(plan.name(), nodes).unwrap();
        let costlier = CostParameters {
            scan_tuple: cost.scan_tuple * 2.0,
            ..cost
        };
        for (what, request, cost) in [("a node name", &renamed, &cost), ("cost", &plan, &costlier)]
        {
            let prepared = prepare(&cat, request, &options, cost).unwrap();
            assert!(
                !Arc::ptr_eq(&base, &prepared),
                "changing {what} alone must prepare a new plan"
            );
            assert_eq!(prepared.plan(), request);
            assert_eq!(prepared.cost, *cost);
        }

        // An entry behind an equal key is handed out only to an equal plan:
        // a 64-bit collision is a miss.
        let cache = PlanCache::default();
        let key = PlanKey {
            plan: plan.content_hash(),
            options,
        };
        cache.insert(key, Arc::clone(&base));
        assert!(cache.lookup(key, &renamed, &cost, &cat).is_none());
        let hit = cache.lookup(key, &plan, &cost, &cat).unwrap();
        assert!(Arc::ptr_eq(&base, &hit));
    }

    #[test]
    fn a_fragment_index_is_built_once_and_shared() {
        let cat = catalog(400, 40, 2);
        let rel = cat.get("A").unwrap();
        let fragment = &rel.fragments()[0];

        let before = cache_stats();
        let first = fragment_index(fragment, 0);
        let again = fragment_index(fragment, 0);
        assert!(Arc::ptr_eq(&first, &again), "one build, shared Arc");
        assert!(Arc::ptr_eq(fragment.index_cell(0).get().unwrap(), &first));
        let delta = cache_stats().since(&before);
        assert!(
            delta.index.hits >= 1 && delta.index.misses >= 1,
            "{delta:?}"
        );
        assert_eq!(delta.index.evictions, 0);

        // The same rows partitioned afresh are another fragment with a cell
        // of its own: it never sees the old build.
        let copy = relation("A", 400, 2);
        let fresh = fragment_index(&copy.fragments()[0], 0);
        assert!(!Arc::ptr_eq(&first, &fresh));
    }

    #[test]
    fn concurrent_requesters_share_one_build() {
        let rel = relation("A", 2_000, 2);
        let fragment = &rel.fragments()[0];
        let threads = 8;
        let built = AtomicU64::new(0);
        let indexes: Vec<Arc<HashIndex>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        resolve(fragment.index_cell(0), || {
                            // ordering: Relaxed — test-only tally of how many
                            // closures ran; no ordering dependencies.
                            built.fetch_add(1, Ordering::Relaxed);
                            // Slow the build down so contenders really race.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            HashIndex::build_for_fragment(fragment, 0)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            built.load(Ordering::Relaxed),
            1,
            "first requester builds, everyone else waits or clones"
        );
        for index in &indexes {
            assert!(Arc::ptr_eq(index, &indexes[0]));
        }
    }

    #[test]
    fn a_failed_build_is_retried_in_the_shared_cell() {
        use std::time::Duration;
        let rel = relation("A", 2_000, 2);
        let fragment = &rel.fragments()[0];
        let cell = fragment.index_cell(0);
        let built = AtomicU64::new(0);
        let build = || {
            // ordering: Relaxed — test-only tally of how many non-panicking
            // closures ran; no ordering dependencies.
            built.fetch_add(1, Ordering::Relaxed);
            HashIndex::build_for_fragment(fragment, 0)
        };
        let (waiter, third) = std::thread::scope(|scope| {
            let failing = scope.spawn(|| {
                resolve(cell, || -> HashIndex {
                    std::thread::sleep(Duration::from_millis(200));
                    panic!("deliberate build failure");
                })
            });
            std::thread::sleep(Duration::from_millis(20));
            let waiter = scope.spawn(|| resolve(cell, build));
            assert!(failing.join().is_err(), "the first build panics");
            let third = resolve(cell, build);
            (waiter.join().unwrap(), third)
        });
        assert_eq!(
            built.load(Ordering::Relaxed),
            1,
            "after the failed build exactly one requester rebuilds into the cell"
        );
        assert!(
            Arc::ptr_eq(&waiter, &third),
            "the retry is shared, not private"
        );
        assert!(Arc::ptr_eq(cell.get().unwrap(), &third));
    }
}
