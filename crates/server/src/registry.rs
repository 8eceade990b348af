//! The cross-brush, two-tier cache registry: statement-level aggregate
//! caches, and above them whole memoized explanations.
//!
//! DBWipes' interaction loop re-asks the same question constantly: every
//! `debug!` click, every re-brush after an undo, and every session looking
//! at the demo dataset runs the ranked-provenance pipeline over the *same*
//! statement. Before this registry existed, each of those calls rebuilt a
//! [`GroupedAggregateCache`] — a full statement execution — from scratch.
//!
//! [`CacheRegistry`] keeps built caches alive, keyed by
//! [`CacheFingerprint`] (canonical statement SQL + table identity + table
//! data version). The fingerprint keys make staleness structurally
//! impossible rather than policed: every append moves
//! [`Table::version`](dbwipes_storage::Table::version), so a stale cache
//! is simply never *found* — it ages out of the LRU instead. Explicit
//! [`CacheRegistry::invalidate_table`] additionally drops every entry of a
//! named table eagerly (used when a table is re-registered, where waiting
//! for LRU eviction would pin dead snapshots in memory).
//!
//! Builds are coordinated per fingerprint: when several sessions race to
//! the same missing entry, one builds while the others wait on it and then
//! share the result, so a statement is never executed twice concurrently
//! and the hit/miss counters stay deterministic. Builds of *different*
//! fingerprints never wait on each other (the registry lock is not held
//! while building).
//!
//! ## The explanation tier
//!
//! Profiling the service showed the aggregate-cache build is only a small
//! slice of a `debug!` — the ranked-provenance pipeline (influence,
//! subgroup discovery, tree training, candidate scoring) dominates. So the
//! registry keeps a second, request-level tier: finished
//! [`Explanation`]s keyed by [`ExplainKey`] — the statement fingerprint
//! *plus* the user's exact S, D′ and ε. A repeated `debug!` with an
//! unchanged request replays the memoized answer without running the
//! pipeline at all; a changed brush misses this tier but still reuses the
//! statement-level aggregate cache below it. Like the cache tier, the
//! fingerprint inside every key pins the table data version, so no
//! mutation can ever replay a stale answer.
//!
//! The registry is shared by every session of a
//! [`SessionManager`](crate::SessionManager): two analysts debugging the
//! same dashboard pay for one cache build — and one pipeline run, if they
//! brushed the same selection — between them.

use crate::manager::lock_recover;
use dbwipes_core::{Explanation, ExplanationRequest};
use dbwipes_engine::{CacheFingerprint, EngineError, GroupedAggregateCache};
use dbwipes_storage::{RowId, Table};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Identifies one exact `debug!` request: the statement over the exact
/// table data ([`CacheFingerprint`]) plus everything else an
/// [`ExplanationRequest`] carries — the user's selections, ε, *and* the
/// pipeline configuration. Two equal keys ask the backend the identical
/// question, so the answer can be replayed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExplainKey {
    fingerprint: CacheFingerprint,
    suspicious_outputs: Vec<usize>,
    suspicious_inputs: Vec<RowId>,
    /// Debug rendering of ε (f64s render with round-trip precision, so
    /// distinct thresholds never collide).
    metric: String,
    /// Debug rendering of the pipeline configuration, so an explain run
    /// under custom ranker weights or exclusions never answers for the
    /// standard configuration (or vice versa).
    config: String,
}

impl ExplainKey {
    /// Builds the key of a request over the fingerprinted statement.
    pub fn new(fingerprint: CacheFingerprint, request: &ExplanationRequest) -> Self {
        ExplainKey {
            fingerprint,
            suspicious_outputs: request.suspicious_outputs.clone(),
            suspicious_inputs: request.suspicious_inputs.clone(),
            metric: format!("{:?}", request.metric),
            config: format!("{:?}", request.config),
        }
    }
}

/// A shared, thread-safe, LRU-evicting map from statement fingerprints to
/// live aggregate caches. See the module docs for the design.
#[derive(Debug)]
pub struct CacheRegistry {
    capacity: usize,
    inner: Mutex<Inner>,
    /// Signalled whenever an in-flight build resolves (successfully or not).
    build_done: Condvar,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<CacheFingerprint, Slot>,
    explanations: HashMap<ExplainKey, ExplanationEntry>,
    /// Monotonic access clock backing the tiers' LRU order.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    append_absorbs: u64,
    explanation_hits: u64,
    explanation_misses: u64,
    explanation_evictions: u64,
}

#[derive(Debug)]
struct ExplanationEntry {
    explanation: Arc<Explanation>,
    last_used: u64,
}

/// A registry slot: a finished cache, or a reservation by the thread
/// currently building one for this fingerprint.
#[derive(Debug)]
enum Slot {
    Building,
    Ready { cache: Arc<GroupedAggregateCache>, last_used: u64 },
}

impl Inner {
    fn ready_len(&self) -> usize {
        self.entries.values().filter(|s| matches!(s, Slot::Ready { .. })).count()
    }

    /// Tier 1's capacity bound; in-flight `Building` reservations neither
    /// count against it nor can be evicted.
    fn evict_caches(&mut self, capacity: usize) {
        evict_lru(&mut self.entries, capacity, &mut self.evictions, |slot| match slot {
            Slot::Ready { last_used, .. } => Some(*last_used),
            Slot::Building => None,
        });
    }
}

/// The registry's one eviction routine: while more than `capacity`
/// evictable entries remain, removes the least recently used one and bumps
/// the tier's `evictions` counter. `last_used` answers `None` for an entry
/// exempt from both the count and eviction.
fn evict_lru<K: Clone + Eq + std::hash::Hash, V>(
    map: &mut HashMap<K, V>,
    capacity: usize,
    evictions: &mut u64,
    last_used: impl Fn(&V) -> Option<u64>,
) {
    while map.values().filter(|v| last_used(v).is_some()).count() > capacity {
        let oldest = map
            .iter()
            .filter_map(|(k, v)| last_used(v).map(|tick| (tick, k)))
            .min_by_key(|(tick, _)| *tick)
            .map(|(_, k)| k.clone())
            .expect("over capacity, so an evictable entry exists");
        map.remove(&oldest);
        *evictions += 1;
    }
}

/// A snapshot of the registry's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Aggregate-cache lookups answered from a live cache (including
    /// lookups that waited for another session's in-flight build and then
    /// shared it).
    pub hits: u64,
    /// Aggregate-cache lookups that had to build (one per actual statement
    /// execution).
    pub misses: u64,
    /// Aggregate-cache entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Entries (any tier) dropped by [`CacheRegistry::invalidate_table`].
    pub invalidations: u64,
    /// Aggregate-cache lookups served by fast-forwarding a retained cache
    /// of an earlier version through
    /// [`GroupedAggregateCache::absorb_append_shared`] instead of
    /// rebuilding — neither a hit nor a miss: no statement was executed,
    /// but the answer was not served verbatim either. Streamed appends
    /// should move *this* counter, never `misses`.
    pub append_absorbs: u64,
    /// Live aggregate-cache entries right now.
    pub entries: usize,
    /// Explanation-tier lookups replayed from a memoized answer.
    pub explanation_hits: u64,
    /// Explanation-tier lookups that had to run the pipeline.
    pub explanation_misses: u64,
    /// Memoized explanations dropped to respect the capacity bound.
    pub explanation_evictions: u64,
    /// Live memoized explanations right now.
    pub explanation_entries: usize,
}

impl CacheStats {
    /// Fraction of aggregate-cache lookups served from cache (0 when none
    /// were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of explanation lookups replayed from the memo (0 when none
    /// were made).
    pub fn explanation_hit_rate(&self) -> f64 {
        let total = self.explanation_hits + self.explanation_misses;
        if total == 0 {
            0.0
        } else {
            self.explanation_hits as f64 / total as f64
        }
    }
}

impl Default for CacheRegistry {
    fn default() -> Self {
        CacheRegistry::new(CacheRegistry::DEFAULT_CAPACITY)
    }
}

impl CacheRegistry {
    /// Default number of retained caches. Each entry holds per-group
    /// aggregate state plus a row index over one statement's filtered
    /// input — typically a few MB on the demo workloads — so a few dozen
    /// covers many concurrent dashboards without unbounded growth.
    pub const DEFAULT_CAPACITY: usize = 32;

    /// Creates a registry retaining at most `capacity` caches (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CacheRegistry {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            build_done: Condvar::new(),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the cache for `fingerprint`, building (and retaining) it
    /// with `build` on a miss. The build runs *outside* the registry lock,
    /// so a slow build never delays lookups of other fingerprints; racing
    /// requests for the *same* fingerprint wait for the single in-flight
    /// build and share its result (counted as hits — they did not execute
    /// the statement).
    ///
    /// The boolean is `true` when the lookup was served from a live or
    /// in-flight cache rather than built by this call.
    pub fn get_or_build<F>(
        &self,
        fingerprint: CacheFingerprint,
        build: F,
    ) -> Result<(Arc<GroupedAggregateCache>, bool), EngineError>
    where
        F: FnOnce() -> Result<GroupedAggregateCache, EngineError>,
    {
        self.lookup_or_build(fingerprint, None, build)
    }

    /// [`CacheRegistry::get_or_build`] with append awareness: on a miss,
    /// before falling back to `build`, the registry looks for a retained
    /// cache of the *same statement over an earlier version of the same
    /// table* (see [`CacheFingerprint::grew_from`]) and fast-forwards it
    /// through [`GroupedAggregateCache::absorb_append_shared`] —
    /// O(appended rows) instead of a full statement execution. `table`
    /// must be the table the fingerprint was taken of. Absorbs are counted
    /// under [`CacheStats::append_absorbs`], not as hits or misses, so
    /// streamed appends are observable as "zero rebuilds" in the stats.
    pub fn get_or_absorb_or_build<F>(
        &self,
        fingerprint: CacheFingerprint,
        table: &Arc<Table>,
        build: F,
    ) -> Result<(Arc<GroupedAggregateCache>, bool), EngineError>
    where
        F: FnOnce() -> Result<GroupedAggregateCache, EngineError>,
    {
        self.lookup_or_build(fingerprint, Some(table), build)
    }

    fn lookup_or_build<F>(
        &self,
        fingerprint: CacheFingerprint,
        table: Option<&Arc<Table>>,
        build: F,
    ) -> Result<(Arc<GroupedAggregateCache>, bool), EngineError>
    where
        F: FnOnce() -> Result<GroupedAggregateCache, EngineError>,
    {
        // Phase 1: hit, wait, or reserve the build — possibly withdrawing
        // an absorbable earlier-version sibling while the lock is held (so
        // no other lookup can race us to it).
        let mut absorb_source: Option<Arc<GroupedAggregateCache>> = None;
        {
            let mut inner = lock_recover(&self.inner);
            loop {
                inner.tick += 1;
                let tick = inner.tick;
                match inner.entries.get_mut(&fingerprint) {
                    Some(Slot::Ready { cache, last_used }) => {
                        *last_used = tick;
                        let cache = Arc::clone(cache);
                        inner.hits += 1;
                        return Ok((cache, true));
                    }
                    Some(Slot::Building) => {
                        inner = self
                            .build_done
                            .wait(inner)
                            .unwrap_or_else(|poison| poison.into_inner());
                    }
                    None => {
                        if table.is_some() {
                            // Only strictly older siblings qualify: absorb
                            // is forward-only, and a *newer* sibling means
                            // the caller asked about data that no longer
                            // exists anywhere (plain miss).
                            let sibling = inner
                                .entries
                                .iter()
                                .filter_map(|(k, s)| match s {
                                    Slot::Ready { .. } if fingerprint.grew_from(k) => {
                                        Some(k.clone())
                                    }
                                    _ => None,
                                })
                                .next();
                            if let Some(old_key) = sibling {
                                let Some(Slot::Ready { cache, .. }) =
                                    inner.entries.remove(&old_key)
                                else {
                                    unreachable!("sibling selected among Ready slots");
                                };
                                absorb_source = Some(cache);
                                inner.append_absorbs += 1;
                                inner.entries.insert(fingerprint.clone(), Slot::Building);
                                break;
                            }
                        }
                        inner.misses += 1;
                        inner.entries.insert(fingerprint.clone(), Slot::Building);
                        break;
                    }
                }
            }
        }

        // Phase 2: build without holding the lock. The guard withdraws the
        // reservation and wakes waiters if `build` unwinds — otherwise a
        // panicking build would leave a permanent `Building` slot that
        // parks every later request for this fingerprint forever.
        struct ReservationGuard<'a> {
            registry: &'a CacheRegistry,
            fingerprint: Option<CacheFingerprint>,
        }
        impl Drop for ReservationGuard<'_> {
            fn drop(&mut self) {
                if let Some(fingerprint) = self.fingerprint.take() {
                    let mut inner = lock_recover(&self.registry.inner);
                    inner.entries.remove(&fingerprint);
                    drop(inner);
                    self.registry.build_done.notify_all();
                }
            }
        }
        let mut guard = ReservationGuard { registry: self, fingerprint: Some(fingerprint.clone()) };
        let built = match absorb_source.take() {
            Some(old) => {
                let table = table.expect("absorb source only selected when a table was given");
                // Fast-forward in place when this registry held the only
                // reference; otherwise clone-and-absorb (sessions may still
                // hold the old cache for a pre-append snapshot).
                let mut cache = Arc::try_unwrap(old).unwrap_or_else(|shared| (*shared).clone());
                cache.absorb_append_shared(Arc::clone(table)).map(|_| cache)
            }
            None => build(),
        };
        guard.fingerprint = None; // build returned; phases below settle the slot.

        // Phase 3: publish (or withdraw the reservation on failure).
        let mut inner = lock_recover(&self.inner);
        let outcome = match built {
            Err(e) => {
                inner.entries.remove(&fingerprint);
                Err(e)
            }
            Ok(cache) => {
                let cache = Arc::new(cache);
                inner.tick += 1;
                let tick = inner.tick;
                inner.entries.insert(
                    fingerprint,
                    Slot::Ready { cache: Arc::clone(&cache), last_used: tick },
                );
                inner.evict_caches(self.capacity);
                Ok((cache, false))
            }
        };
        drop(inner);
        self.build_done.notify_all();
        outcome
    }

    /// Looks up a memoized explanation for exactly this request, counting
    /// an explanation-tier hit or miss.
    pub fn get_explanation(&self, key: &ExplainKey) -> Option<Arc<Explanation>> {
        let mut inner = lock_recover(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.explanations.get_mut(key).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.explanation)
        });
        if found.is_some() {
            inner.explanation_hits += 1;
        } else {
            inner.explanation_misses += 1;
        }
        found
    }

    /// Memoizes a freshly computed explanation under its request key,
    /// evicting the least recently replayed answers beyond the capacity
    /// bound. Racing stores of the same key are harmless (the requests
    /// were identical, so the answers are too; last write wins).
    pub fn store_explanation(&self, key: ExplainKey, explanation: Arc<Explanation>) {
        let mut inner = lock_recover(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        inner.explanations.insert(key, ExplanationEntry { explanation, last_used: tick });
        let Inner { explanations, explanation_evictions, .. } = &mut *inner;
        evict_lru(explanations, self.capacity, explanation_evictions, |e| Some(e.last_used));
    }

    /// Eagerly drops every finished cache of the named table
    /// (case-insensitive), returning how many entries were removed. Used
    /// when a table is re-registered: version-keyed lookups would already
    /// miss, but the dead snapshots should release their memory immediately
    /// instead of waiting to age out of the LRU. In-flight builds are left
    /// alone (their reservation is re-published by the builder; the entry
    /// is unreachable for new data anyway, so it simply ages out).
    pub fn invalidate_table(&self, table_name: &str) -> usize {
        let key = table_name.to_ascii_lowercase();
        let mut inner = lock_recover(&self.inner);
        let before = inner.entries.len() + inner.explanations.len();
        inner.entries.retain(|fp, slot| matches!(slot, Slot::Building) || fp.table_name != key);
        inner.explanations.retain(|k, _| k.fingerprint.table_name != key);
        let removed = before - inner.entries.len() - inner.explanations.len();
        inner.invalidations += removed as u64;
        removed
    }

    /// Number of live (finished) entries.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).ready_len()
    }

    /// True when no finished caches are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_recover(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            append_absorbs: inner.append_absorbs,
            entries: inner.ready_len(),
            explanation_hits: inner.explanation_hits,
            explanation_misses: inner.explanation_misses,
            explanation_evictions: inner.explanation_evictions,
            explanation_entries: inner.explanations.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_engine::parse_select;
    use dbwipes_storage::{DataType, Schema, Table, Value};

    fn table(name: &str, rows: i64) -> Arc<Table> {
        let mut t =
            Table::new(name, Schema::of(&[("g", DataType::Int), ("v", DataType::Float)])).unwrap();
        for i in 0..rows {
            t.push_row(vec![Value::Int(i % 3), Value::Float(i as f64)]).unwrap();
        }
        Arc::new(t)
    }

    fn build_for(t: &Arc<Table>, sql: &str) -> (CacheFingerprint, GroupedAggregateCache) {
        let stmt = parse_select(sql).unwrap();
        let fp = CacheFingerprint::of(t, &stmt);
        let cache = GroupedAggregateCache::build_shared(Arc::clone(t), &stmt).unwrap();
        (fp, cache)
    }

    /// Whether `fp` is retained: a lookup whose build refuses, so a miss
    /// retains nothing. Like every lookup it counts a hit or a miss and
    /// touches the LRU order.
    fn retained(registry: &CacheRegistry, fp: &CacheFingerprint) -> bool {
        registry.get_or_build(fp.clone(), || Err(EngineError::plan("not retained"))).is_ok()
    }

    #[test]
    fn second_lookup_hits_and_shares_the_same_cache() {
        let registry = CacheRegistry::new(4);
        let t = table("r", 30);
        let (fp, cache) = build_for(&t, "SELECT g, avg(v) FROM r GROUP BY g");
        let (first, hit1) = registry.get_or_build(fp.clone(), || Ok(cache)).unwrap();
        assert!(!hit1);
        let (second, hit2) =
            registry.get_or_build(fp, || panic!("must not rebuild on a hit")).unwrap();
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_builds_release_the_reservation() {
        let registry = CacheRegistry::new(4);
        let t = table("r", 6);
        let (fp, cache) = build_for(&t, "SELECT g, avg(v) FROM r GROUP BY g");
        let err = registry
            .get_or_build(fp.clone(), || Err(dbwipes_engine::EngineError::plan("boom")))
            .unwrap_err();
        assert!(err.to_string().contains("boom"));
        assert!(registry.is_empty());
        // A later build of the same fingerprint succeeds normally.
        let (_, hit) = registry.get_or_build(fp, || Ok(cache)).unwrap();
        assert!(!hit);
        assert_eq!(registry.stats().misses, 2);
    }

    #[test]
    fn concurrent_requests_for_one_fingerprint_build_exactly_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let registry = Arc::new(CacheRegistry::new(4));
        let t = table("r", 600);
        let stmt = parse_select("SELECT g, avg(v) FROM r GROUP BY g").unwrap();
        let fp = CacheFingerprint::of(&t, &stmt);
        let builds = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for _ in 0..8 {
                let registry = Arc::clone(&registry);
                let t = Arc::clone(&t);
                let stmt = stmt.clone();
                let fp = fp.clone();
                let builds = &builds;
                scope.spawn(move || {
                    registry
                        .get_or_build(fp, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window so waiters actually wait.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            GroupedAggregateCache::build_shared(t, &stmt)
                        })
                        .unwrap();
                });
            }
        });

        assert_eq!(builds.load(Ordering::Relaxed), 1, "racing threads must share one build");
        let stats = registry.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn table_mutation_changes_the_fingerprint_so_stale_caches_are_unreachable() {
        let registry = CacheRegistry::new(4);
        let t = table("r", 30);
        let (fp, cache) = build_for(&t, "SELECT g, avg(v) FROM r GROUP BY g");
        registry.get_or_build(fp, || Ok(cache)).unwrap();

        // Append to a copy of the table (as the base's COW catalog would).
        let mut mutated = (*t).clone();
        mutated.push_row(vec![Value::Int(1), Value::Float(2.0)]).unwrap();
        let (fp2, cache2) = build_for(&Arc::new(mutated), "SELECT g, avg(v) FROM r GROUP BY g");
        assert!(!retained(&registry, &fp2), "stale cache must not be found");
        registry.get_or_build(fp2, || Ok(cache2)).unwrap();
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let registry = CacheRegistry::new(2);
        let t = table("r", 12);
        let (fp_a, a) = build_for(&t, "SELECT g, avg(v) FROM r GROUP BY g");
        let (fp_b, b) = build_for(&t, "SELECT g, sum(v) FROM r GROUP BY g");
        let (fp_c, c) = build_for(&t, "SELECT g, count(v) FROM r GROUP BY g");
        registry.get_or_build(fp_a.clone(), || Ok(a)).unwrap();
        registry.get_or_build(fp_b.clone(), || Ok(b)).unwrap();
        // Touch A so B becomes the LRU victim.
        assert!(retained(&registry, &fp_a));
        registry.get_or_build(fp_c.clone(), || Ok(c)).unwrap();
        assert_eq!(registry.len(), 2);
        assert!(!retained(&registry, &fp_b), "B was least recently used");
        assert!(retained(&registry, &fp_a));
        assert!(retained(&registry, &fp_c));
        assert_eq!(registry.stats().evictions, 1);
    }

    #[test]
    fn invalidate_table_drops_only_that_table() {
        let registry = CacheRegistry::new(8);
        let r = table("Readings", 12);
        let d = table("donations", 12);
        let (fp_r, cr) = build_for(&r, "SELECT g, avg(v) FROM Readings GROUP BY g");
        let (fp_d, cd) = build_for(&d, "SELECT g, avg(v) FROM donations GROUP BY g");
        registry.get_or_build(fp_r.clone(), || Ok(cr)).unwrap();
        registry.get_or_build(fp_d.clone(), || Ok(cd)).unwrap();
        // Case-insensitive, like the catalog.
        assert_eq!(registry.invalidate_table("READINGS"), 1);
        assert!(!retained(&registry, &fp_r));
        assert!(retained(&registry, &fp_d));
        assert_eq!(registry.stats().invalidations, 1);
        assert_eq!(registry.invalidate_table("donations"), 1);
        assert!(registry.is_empty());
    }

    #[test]
    fn capacity_is_clamped_to_at_least_one() {
        let registry = CacheRegistry::new(0);
        assert_eq!(registry.capacity(), 1);
        assert_eq!(CacheRegistry::default().capacity(), CacheRegistry::DEFAULT_CAPACITY);
    }

    #[test]
    fn appends_fast_forward_the_retained_cache_instead_of_rebuilding() {
        let registry = CacheRegistry::new(4);
        let t = table("r", 30);
        let (fp, cache) = build_for(&t, "SELECT g, avg(v) FROM r GROUP BY g");
        registry.get_or_absorb_or_build(fp, &t, || Ok(cache)).unwrap();
        assert_eq!(registry.stats().misses, 1);

        // Stream a batch of appended rows (as the manager's COW catalog
        // would: clone, push, re-share).
        let mut grown = (*t).clone();
        grown.push_row(vec![Value::Int(1), Value::Float(500.0)]).unwrap();
        let grown = Arc::new(grown);
        let stmt = parse_select("SELECT g, avg(v) FROM r GROUP BY g").unwrap();
        let fp2 = CacheFingerprint::of(&grown, &stmt);
        let (absorbed, served) = registry
            .get_or_absorb_or_build(fp2.clone(), &grown, || panic!("append must not rebuild"))
            .unwrap();
        assert!(!served, "an absorb is not a verbatim hit");
        let stats = registry.stats();
        assert_eq!(
            (stats.misses, stats.append_absorbs, stats.entries),
            (1, 1, 1),
            "the old entry is re-keyed, not duplicated"
        );

        // The absorbed cache answers exactly like a fresh build.
        let fresh = GroupedAggregateCache::build_shared(Arc::clone(&grown), &stmt).unwrap();
        let whole = |c: &GroupedAggregateCache| c.cleaned_result(c.statement(), None).rows;
        assert_eq!(whole(&absorbed), whole(&fresh));
        // And the new fingerprint now hits verbatim.
        assert!(retained(&registry, &fp2));

        // A second appended batch fast-forwards again.
        let mut grown2 = (*grown).clone();
        grown2.push_row(vec![Value::Int(7), Value::Float(-2.0)]).unwrap();
        let grown2 = Arc::new(grown2);
        let fp3 = CacheFingerprint::of(&grown2, &stmt);
        registry
            .get_or_absorb_or_build(fp3, &grown2, || panic!("append must not rebuild"))
            .unwrap();
        assert_eq!(registry.stats().append_absorbs, 2);
        assert_eq!(registry.stats().misses, 1);
    }

    #[test]
    fn an_earlier_version_misses_and_rebuilds() {
        let registry = CacheRegistry::new(4);
        let t = table("r", 30);
        let mut grown = (*t).clone();
        grown.push_row(vec![Value::Int(1), Value::Float(500.0)]).unwrap();
        let grown = Arc::new(grown);
        let (fp, cache) = build_for(&grown, "SELECT g, avg(v) FROM r GROUP BY g");
        registry.get_or_absorb_or_build(fp, &grown, || Ok(cache)).unwrap();

        // Absorbing is forward-only: the retained cache of the grown table
        // cannot serve the table before the append, a plain miss + rebuild.
        let (fp2, cache2) = build_for(&t, "SELECT g, avg(v) FROM r GROUP BY g");
        registry.get_or_absorb_or_build(fp2, &t, || Ok(cache2)).unwrap();
        let stats = registry.stats();
        assert_eq!((stats.misses, stats.append_absorbs), (2, 0));
    }
}
