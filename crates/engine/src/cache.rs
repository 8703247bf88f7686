//! Process-wide query-setup caches: prepared plans and shared build-side
//! hash indexes.
//!
//! Under real traffic the same plan shapes repeat and concurrent queries
//! hash-join the *same* relations, yet historically every submission
//! re-expanded the plan, re-ran the scheduler and rebuilt every build-side
//! [`HashIndex`] from scratch. This module makes that setup ~free on repeat:
//!
//! * the **plan cache** maps a content hash of (plan structure, scheduler
//!   options, cost parameters) to the expanded [`ExtendedPlan`] and built
//!   [`ExecutionSchedule`] (a [`PreparedPlan`]);
//! * the **index cache** maps (relation, key column, fragment, *fragment
//!   generation*) to an `Arc<HashIndex>`, so concurrent and repeated
//!   queries over one relation share a single build — each entry holds its
//!   fragment's build cell (a [`OnceLock`]): the first requester builds
//!   into it, concurrent requesters *wait on the build in flight* instead
//!   of duplicating it, and later requesters clone the `Arc`.
//!
//! **Invalidation is by generation, not by flushing**: every [`Catalog`]
//! mutation stamps the touched relation with a process-wide unique
//! generation, and each of its fragments with one that changes only when
//! the fragment's tuples do. Prepared plans record the relation generations
//! they were derived from, index entries their fragment's generation, and a
//! lookup that finds a stale entry evicts it and reports a miss. Stale
//! entries are therefore unreachable the instant the catalog changes, and a
//! replace that edits one fragment leaves the other fragments' indexes hit.
//! Capacity is bounded with LRU eviction on top. The per-cache
//! hit/miss/evict counters are process-wide too: a caller meters a phase
//! as `cache_stats().since(&before)` ([`cache_stats`], [`CacheStats::since`]),
//! as the serve stats path does over a server's lifetime.
//!
//! Both caches are process-wide — with the fault registry, the engine's
//! only process-globals: generations are unique across *all* catalogs, so
//! entries from unrelated sessions can never be confused, and
//! cross-connection reuse in the serve layer falls out for free.
//!
//! Fault points [`FaultPoint::CacheLookup`] and
//! [`FaultPoint::CacheBuild`] cover the new path: a lookup fault
//! bypasses the cache (an uncached build is always correct — faults may
//! fail or slow queries, never falsify them), a build fault escalates to a
//! panic contained by the worker's `catch_unwind` and leaves the cell empty
//! for the next requester to build into.

use crate::faults::{self, FaultAction, FaultPoint};
use crate::schedule::{ExecutionSchedule, Scheduler, SchedulerOptions};
use crate::Result;
use dbs3_lera::{ContentHasher, CostParameters, ExtendedPlan, OperatorKind, OuterInput, Plan};
use dbs3_storage::{Catalog, HashIndex};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Bounded capacity of the plan cache, in prepared plans.
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// Bounded capacity of the index cache, in fragment indexes. A paper-scale
/// query at degree 200 uses 200 entries; 1024 comfortably holds a handful
/// of live relations before LRU eviction starts.
pub const INDEX_CACHE_CAPACITY: usize = 1024;

/// Hit/miss/evict counters of one cache. Monotonic over the process
/// lifetime — consumers subtract snapshots to meter a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from the cache (including awaited in-flight builds).
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
    /// Shared build-side hash-index cache.
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
/// (so staleness is a cheap per-relation comparison, not a re-expansion).
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

/// Key of an index-cache entry. The fragment *generation* lives in the
/// entry, not the key, so a stale entry is found (and evicted) by the very
/// lookup that replaces it. The relation name is shared with the caller, so
/// building a key for a lookup allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct IndexKey {
    relation: Arc<str>,
    column: usize,
    fragment: usize,
}

/// A fragment's build cell: empty while its index is in flight (or after
/// a build panicked), then the shared index. Concurrent requesters wait in
/// [`OnceLock::get_or_init`]; if the builder panics, the cell stays empty
/// and the next caller, a waiter included, builds into it.
type IndexCell = Arc<OnceLock<Arc<HashIndex>>>;

#[derive(Debug)]
struct IndexEntry {
    generation: u64,
    cell: IndexCell,
    last_used: u64,
}

#[derive(Debug, Default)]
struct IndexCacheInner {
    entries: HashMap<IndexKey, IndexEntry>,
    counters: CacheCounters,
    tick: u64,
}

#[derive(Debug, Default)]
struct IndexCache {
    inner: Mutex<IndexCacheInner>,
}

impl IndexCache {
    /// The build cell of `key` at `generation`, under one lock: a
    /// generation match is a hit whether the cell is built or in flight
    /// (the work is shared, not repeated); anything else evicts the stale
    /// entry, inserts an empty cell and is a miss. The LRU bound is
    /// enforced here too, over built cells only: an empty one is a build in
    /// flight (or a failed one awaiting its retry) and is never evicted.
    fn cell(&self, key: &IndexKey, generation: u64) -> IndexCell {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(key) {
            if entry.generation == generation {
                entry.last_used = tick;
                let cell = Arc::clone(&entry.cell);
                inner.counters.hits += 1;
                return cell;
            }
            // Stale generation — evict the map entry (a stale build in
            // flight still fills its own cell for the callers holding it).
            inner.entries.remove(key);
            inner.counters.evictions += 1;
        }
        inner.counters.misses += 1;
        let cell = IndexCell::default();
        inner.entries.insert(
            key.clone(),
            IndexEntry {
                generation,
                cell: Arc::clone(&cell),
                last_used: tick,
            },
        );
        while inner.entries.len() > INDEX_CACHE_CAPACITY {
            let Some(oldest) = inner
                .entries
                .iter()
                .filter(|(_, e)| e.cell.get().is_some())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            inner.entries.remove(&oldest);
            inner.counters.evictions += 1;
        }
        cell
    }
}

#[derive(Debug, Default)]
struct Caches {
    plan: PlanCache,
    index: IndexCache,
}

static CACHES: OnceLock<Caches> = OnceLock::new();

fn caches() -> &'static Caches {
    CACHES.get_or_init(Caches::default)
}

/// Snapshot of both caches' counters.
pub fn cache_stats() -> CacheStats {
    let caches = caches();
    let plan = {
        let inner = caches.plan.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.counters
    };
    let index = {
        let inner = caches.index.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.counters
    };
    CacheStats { plan, index }
}

/// Drops every cached entry (counters keep accumulating). Benchmarks call
/// this between tiers so retained scaled-tier indexes don't distort memory
/// or accidentally warm an unrelated measurement; builds in flight still
/// fill the cells their waiters hold.
pub fn clear_caches() {
    let caches = caches();
    {
        let mut inner = caches.plan.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.entries.clear();
    }
    {
        let mut inner = caches.index.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.entries.clear();
    }
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
        Some(FaultAction::Panic) => {
            // allow-panic: injected fault — exercises the same containment
            // as a real panic at this point (worker catch_unwind / submit
            // path unwinding); faults may fail queries, never falsify them.
            panic!("fault injected: {}", FaultPoint::CacheLookup)
        }
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
        Some(_) => {
            // allow-panic: injected fault; error/drop escalate on purpose —
            // a silently skipped build has no typed-error channel here, and
            // the panic is contained into WorkerPanicked.
            panic!("fault injected: {}", FaultPoint::CacheBuild)
        }
    }
}

/// Fetches (or builds) the shared hash index of one relation fragment.
///
/// `generation` is the fragment's own ([`Catalog::fragment_generations`]).
/// The first requester of a `(relation, column, fragment, generation)`
/// builds into the entry's cell; concurrent requesters wait for that build;
/// later requesters clone the `Arc`. `build` runs *outside* the cache lock.
/// A build that panics leaves the cell empty, and the next requester builds
/// into it again (through the `engine.cache.build` fault point again).
/// `relation` is the caller's shared copy of the name (a bound join makes
/// it once), so the lookup key costs a reference count, not an allocation.
pub fn shared_index(
    relation: &Arc<str>,
    generation: u64,
    column: usize,
    fragment: usize,
    build: impl FnOnce() -> HashIndex,
) -> Arc<HashIndex> {
    if lookup_fault_bypasses() {
        return Arc::new(build());
    }
    let key = IndexKey {
        relation: Arc::clone(relation),
        column,
        fragment,
    };
    let cell = caches().index.cell(&key, generation);
    Arc::clone(cell.get_or_init(|| {
        honor_build_fault();
        Arc::new(build())
    }))
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
    h.write_usize(options.queue_capacity);
    h.write_usize(options.cache_size);
    h.write_u64(options.discard_results as u64);
    write_cost(&mut h, cost);
    h.finish()
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
    let cache = &caches().plan;
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
        let (plan, _) = fig14(&cat);
        let cost = CostParameters::default();
        let base_options = SchedulerOptions::default().with_total_threads(2);
        let base = prepare(&cat, &plan, &base_options, &cost).unwrap();
        // Each row changes exactly one field: `options_hash` must see it.
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
            assert_eq!(base.fingerprint(), prepared.fingerprint());
        }
        let four = prepare(&cat, &plan, &base_options.with_total_threads(4), &cost).unwrap();
        assert_ne!(
            base.schedule().query_threads(),
            four.schedule().query_threads()
        );
    }

    #[test]
    fn shared_index_is_shared_and_invalidated_by_generation() {
        let cat = catalog(400, 40, 2);
        let rel = cat.get("A").unwrap();
        let generation = cat.generation("A").unwrap();
        let tuples = rel.fragments()[0].tuples();

        let name: Arc<str> = Arc::from("A");
        let before = cache_stats();
        let first = shared_index(&name, generation, 0, 0, || HashIndex::build(tuples, 0));
        // A separately allocated copy of the name finds the same entry.
        let again = shared_index(&Arc::from("A"), generation, 0, 0, || {
            HashIndex::build(tuples, 0)
        });
        assert!(Arc::ptr_eq(&first, &again), "one build, shared Arc");
        let delta = cache_stats().since(&before);
        assert!(
            delta.index.hits >= 1 && delta.index.misses >= 1,
            "{delta:?}"
        );

        // A different generation never sees the old build.
        let fresh = shared_index(&name, generation + 1_000_000, 0, 0, || {
            HashIndex::build(tuples, 0)
        });
        assert!(!Arc::ptr_eq(&first, &fresh));
    }

    #[test]
    fn concurrent_requesters_share_one_build() {
        let cat = catalog(2_000, 40, 2);
        let rel = cat.get("A").unwrap();
        // A private generation namespace far away from real ones keeps this
        // test independent of everything else in the process.
        let generation = u64::MAX - 7;
        let threads = 8;
        let built = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let indexes: Vec<Arc<HashIndex>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let rel = Arc::clone(&rel);
                    let built = Arc::clone(&built);
                    scope.spawn(move || {
                        shared_index(&Arc::from("concurrent-test"), generation, 0, 0, || {
                            // ordering: Relaxed — test-only tally of how many
                            // closures ran; no ordering dependencies.
                            built.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            // Slow the build down so contenders really race.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            HashIndex::build(rel.fragments()[0].tuples(), 0)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            built.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "first requester builds, everyone else waits or clones"
        );
        for index in &indexes {
            assert!(Arc::ptr_eq(index, &indexes[0]));
        }
    }

    #[test]
    fn a_failed_build_is_retried_in_the_shared_cell() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::time::Duration;
        let cat = catalog(2_000, 40, 2);
        let rel = cat.get("A").unwrap();
        let generation = u64::MAX - 13;
        let name: Arc<str> = Arc::from("failed-build-test");
        let built = AtomicU64::new(0);
        let build = || {
            // ordering: Relaxed — test-only tally of how many non-panicking
            // closures ran; no ordering dependencies.
            built.fetch_add(1, Ordering::Relaxed);
            HashIndex::build(rel.fragments()[0].tuples(), 0)
        };
        let (waiter, third) = std::thread::scope(|scope| {
            let failing = scope.spawn(|| {
                shared_index(&name, generation, 0, 0, || -> HashIndex {
                    std::thread::sleep(Duration::from_millis(200));
                    panic!("deliberate build failure");
                })
            });
            std::thread::sleep(Duration::from_millis(20));
            let waiter = scope.spawn(|| shared_index(&name, generation, 0, 0, build));
            assert!(failing.join().is_err(), "the first build panics");
            let third = shared_index(&name, generation, 0, 0, build);
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
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        // Drive more distinct fragments than the capacity through a private
        // relation name; the map must stay bounded.
        let cat = catalog(200, 20, 2);
        let rel = cat.get("A").unwrap();
        let tuples = rel.fragments()[0].tuples();
        let generation = u64::MAX - 99;
        let name: Arc<str> = Arc::from("lru-test");
        let before = cache_stats().index.evictions;
        for fragment in 0..(INDEX_CACHE_CAPACITY + 8) {
            let _ = shared_index(&name, generation, 0, fragment, || {
                HashIndex::build(tuples, 0)
            });
        }
        let inner = caches().index.inner.lock().unwrap();
        assert!(inner.entries.len() <= INDEX_CACHE_CAPACITY);
        drop(inner);
        assert!(cache_stats().index.evictions > before);
    }
}
