//! Concurrent session hosting.
//!
//! A [`SessionManager`] turns the single-user
//! [`DashboardSession`] into a
//! multi-tenant service:
//!
//! * **Shared data, private state.** All sessions open over one base
//!   [`Catalog`] whose tables live behind `Arc` snapshots — opening a
//!   session clones the catalog in O(tables) reference bumps, not O(data).
//!   A session that physically mutates a table copies-on-write, so one
//!   analyst's cleaning never leaks into another's dashboard; the copy
//!   shares the table's sealed column chunks, so neither that nor a
//!   streamed append ([`SessionManager::stream_append`]) costs the table.
//! * **Per-session locking.** Each session sits behind its own `Mutex`;
//!   the manager's session map is only read-locked to route a command, so
//!   concurrent clients working in different sessions never serialize on
//!   each other's brush→debug loops.
//! * **Cross-brush cache reuse.** All sessions share one two-tier
//!   [`CacheRegistry`]: a repeated `debug` on an unchanged statement —
//!   within one session or across sessions brushing the same dashboard —
//!   skips the full statement execution that dominates explain latency.

use crate::durability::StorageRuntime;
use crate::executor::PoolStats;
use crate::registry::{CacheRegistry, ExplainKey};
use dbwipes_core::{ComponentTimings, CoreError, DbWipes, Explanation};
use dbwipes_dashboard::DashboardSession;
use dbwipes_engine::{CacheFingerprint, GroupedAggregateCache, QueryResult, SelectStatement};
use dbwipes_storage::{Catalog, Table, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Read-locks recovering from poison. The catalog and session-map locks
/// guard data that every writer leaves consistent at each step (handler
/// panics are caught *outside* these critical sections), so a poisoned
/// flag here only records that some thread died elsewhere while holding
/// the guard — recovering serves every healthy session instead of
/// cascading the panic across the whole service.
fn read_recover<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poison| poison.into_inner())
}

/// Write-locking twin of [`read_recover`].
fn write_recover<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|poison| poison.into_inner())
}

/// Mutex twin of [`read_recover`], for every service-internal mutex of
/// the crate. Recovering is sound for each of them because no critical
/// section runs user command code and every update under the lock leaves
/// the data valid at each step: the quarantine map here and the executor's
/// queue and join handles are plain bookkeeping, and the cache registry
/// only inserts, removes or bumps a counter (builds run *outside* its lock
/// behind a reservation guard) — so serving beats taking every connection
/// or cache-backed command down with one dead thread.
pub(crate) fn lock_recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Identifies one open session within a [`SessionManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One client's dashboard plus its service-side counters.
#[derive(Debug)]
pub struct ServerSession {
    dashboard: DashboardSession,
    commands: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl ServerSession {
    fn new(catalog: Catalog) -> Self {
        let dashboard = DashboardSession::new(DbWipes::with_catalog(catalog));
        ServerSession { dashboard, commands: 0, cache_hits: 0, cache_misses: 0 }
    }

    /// The wrapped dashboard session.
    pub fn dashboard(&self) -> &DashboardSession {
        &self.dashboard
    }

    /// Mutable access to the wrapped dashboard session.
    pub fn dashboard_mut(&mut self) -> &mut DashboardSession {
        &mut self.dashboard
    }

    /// Number of commands this session has served.
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// How many of this session's `debug` calls reused a registry cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// How many of this session's `debug` calls had to build a cache.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Counts one served command (called by the protocol layer).
    pub(crate) fn record_command(&mut self) {
        self.commands += 1;
    }

    /// Runs `debug!` through the shared two-tier registry: an unchanged
    /// request (same statement, same table data, same S/D′/ε) replays the
    /// memoized explanation outright; a changed request still reuses the
    /// statement-level [`GroupedAggregateCache`] when one is alive,
    /// building and retaining both tiers otherwise.
    ///
    /// Returns the explanation and a [`DebugCacheReport`] saying which
    /// tier served it. A memo-served explanation reports *near-zero*
    /// component timings — no pipeline ran, so replaying the original
    /// run's wall-clock numbers would misreport the service's latency —
    /// and the protocol layer surfaces `report.memo_hit` as the reply's
    /// `cached` marker.
    pub fn debug_cached(
        &mut self,
        registry: &CacheRegistry,
    ) -> Result<(&Explanation, DebugCacheReport), CoreError> {
        let result = self
            .dashboard
            .result()
            .ok_or_else(|| CoreError::invalid("no query has been executed"))?;
        let stmt = result.statement.clone();
        let table =
            self.dashboard.backend().catalog().table_arc(&stmt.table).map_err(CoreError::from)?;

        // The memo key is derived from the *same* request `debug` would
        // run (the dashboard's single source of truth, including the
        // pipeline config), so key and computation cannot drift apart;
        // this also performs `debug`'s own state validation.
        let request = self.dashboard.explain_request()?;
        let key = ExplainKey::new(CacheFingerprint::of(&table, &stmt), &request);

        // Tier 2: the identical question was already answered. The replay
        // reports zeroed timings: nothing was computed now, and replaying
        // the original run's elapsed times would be a lie about *this*
        // call's latency.
        if let Some(memoized) = registry.get_explanation(&key) {
            self.cache_hits += 1;
            let mut replay = (*memoized).clone();
            replay.timings = ComponentTimings::default();
            let explanation = self.dashboard.install_explanation(replay)?;
            return Ok((explanation, DebugCacheReport { cache_hit: true, memo_hit: true }));
        }

        // Tier 1: reuse the statement-level aggregate cache — fast-
        // forwarding a retained sibling through `absorb_append` when the
        // only difference is streamed appends — and build it cold only
        // when neither exists. Then run the pipeline and memoize.
        let (cache, cache_hit) = statement_cache(registry, &table, &stmt)?;
        if cache_hit {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
        let explanation = self.dashboard.debug_with_cache(&cache)?;
        registry.store_explanation(key, Arc::new(explanation.clone()));
        Ok((explanation, DebugCacheReport { cache_hit, memo_hit: false }))
    }

    /// `click_predicate` through the shared registry: the clicked
    /// predicate's result is read from the retained aggregate cache of the
    /// *base* statement — the one `debug` built a moment earlier, absorbed
    /// forward if rows were streamed in since, built (and counted as a
    /// miss) only when it was evicted — instead of re-executing. A bad
    /// index is refused before any lookup is counted.
    pub fn click_predicate_cached(
        &mut self,
        index: usize,
        registry: &CacheRegistry,
    ) -> Result<&QueryResult, CoreError> {
        self.dashboard.ranked_predicate(index)?;
        let cache = self.base_cache(registry)?;
        self.dashboard.click_predicate_with_cache(index, &cache)
    }

    /// `undo` through the shared registry — see
    /// [`ServerSession::click_predicate_cached`].
    pub fn undo_cached(&mut self, registry: &CacheRegistry) -> Result<&QueryResult, CoreError> {
        let cache = self.base_cache(registry)?;
        self.dashboard.undo_clean_with_cache(&cache)
    }

    /// The registry's cache of the session's base statement over the table
    /// data the session reads.
    fn base_cache(
        &self,
        registry: &CacheRegistry,
    ) -> Result<Arc<GroupedAggregateCache<'static>>, CoreError> {
        let stmt = self
            .dashboard
            .base_statement()
            .ok_or_else(|| CoreError::invalid("no query has been executed"))?;
        let table =
            self.dashboard.backend().catalog().table_arc(&stmt.table).map_err(CoreError::from)?;
        Ok(statement_cache(registry, &table, stmt)?.0)
    }

    /// Adopts a freshly appended snapshot of `table` (streaming
    /// ingestion). The adoption is deliberately conservative — the
    /// session only follows an append that is a pure fast-forward of what
    /// it is currently reading:
    ///
    /// * a different table id means the session reads an older
    ///   incarnation of the name (the table was re-registered) — skip;
    /// * a non-append-descendant epoch means the session privately
    ///   copied-on-write (cleaning, deletes) — skip, exactly like
    ///   in-flight transactions keep their snapshot;
    /// * an equal epoch means the session already reads this data — skip.
    ///
    /// When the session displays a result over the appended table, the
    /// result is recomputed through `registry` — absorbing the retained
    /// aggregate cache instead of re-executing the statement — and
    /// installed via [`DashboardSession::refresh_after_append`], so the
    /// analyst's brushes survive. Otherwise only the catalog snapshot is
    /// swapped. Returns true when the session adopted the snapshot.
    pub fn adopt_append(
        &mut self,
        table: &Arc<Table>,
        registry: &CacheRegistry,
    ) -> Result<bool, CoreError> {
        let Ok(current) = self.dashboard.backend().catalog().table_arc(table.name()) else {
            return Ok(false);
        };
        if current.id() != table.id()
            || current.epoch() == table.epoch()
            || !table.epoch().is_append_descendant_of(current.epoch())
        {
            return Ok(false);
        }
        let displayed = self
            .dashboard
            .result()
            .map(|r| r.statement.clone())
            .filter(|stmt| stmt.table.eq_ignore_ascii_case(table.name()));
        let Some(stmt) = displayed else {
            self.dashboard.backend_mut().catalog_mut().install_snapshot(Arc::clone(table));
            return Ok(true);
        };
        let (cache, _) = statement_cache(registry, table, &stmt)?;
        let refreshed = cache.cleaned_result(&stmt, None);
        self.dashboard.refresh_after_append(Arc::clone(table), refreshed)?;
        Ok(true)
    }
}

/// The registry's aggregate cache of `stmt` over `table`: the retained
/// one, a retained sibling absorbed forward through the appends since, or
/// one built cold and retained. The flag is `true` unless it was built.
fn statement_cache(
    registry: &CacheRegistry,
    table: &Arc<Table>,
    stmt: &SelectStatement,
) -> Result<(Arc<GroupedAggregateCache<'static>>, bool), CoreError> {
    registry
        .get_or_absorb_or_build(CacheFingerprint::of(table, stmt), table, || {
            GroupedAggregateCache::build_shared(Arc::clone(table), stmt)
        })
        .map_err(CoreError::from)
}

/// Which shared registry tier served a [`ServerSession::debug_cached`]
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DebugCacheReport {
    /// Any shared tier hit — the protocol's `cache_hit` flag. True both
    /// for a memo replay and for a pipeline run over a retained
    /// aggregate cache.
    pub cache_hit: bool,
    /// The explanation tier replayed a memoized answer outright (no
    /// pipeline ran) — the protocol's `cached` marker.
    pub memo_hit: bool,
}

/// What one [`SessionManager::stream_append`] call did — the payload of
/// the `stream_append` wire reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamAppendReport {
    /// Rows appended to the base table. All-or-nothing: on any validation
    /// error the command appends zero rows.
    pub appended: usize,
    /// Total rows in the base table after the append.
    pub total_rows: usize,
    /// Open sessions that adopted the new snapshot. Sessions reading a
    /// private copy-on-write snapshot or an older incarnation of the
    /// table keep what they were reading (see
    /// [`ServerSession::adopt_append`]).
    pub sessions_refreshed: usize,
    /// True when the appended snapshot reached durable storage before the
    /// reply. False without attached storage, and false in degraded mode
    /// — the append is fully absorbed in memory either way, so a client
    /// seeing `durable:false` knows exactly what a crash would lose.
    pub durable: bool,
}

/// Hosts many concurrent [`ServerSession`]s over one shared catalog and
/// one shared [`CacheRegistry`]. See the module docs for the concurrency
/// story.
#[derive(Debug)]
pub struct SessionManager {
    base: RwLock<Catalog>,
    registry: Arc<CacheRegistry>,
    sessions: RwLock<HashMap<SessionId, Arc<Mutex<ServerSession>>>>,
    next_id: AtomicU64,
    /// Set by the `shutdown` ctrl-line (or the front-end directly); every
    /// serving loop polls it and drains.
    shutdown: AtomicBool,
    /// Executor counters, attached by the pooled TCP front-end so the
    /// `stats` command can report them. Never set in stdio mode.
    pool: OnceLock<Arc<PoolStats>>,
    /// Durable storage, attached when the server runs with a data
    /// directory. Unset managers (embedded use, most tests) behave
    /// exactly as before: nothing is persisted.
    storage: OnceLock<Arc<StorageRuntime>>,
    /// Sessions poisoned by a caught handler panic, with the reason. A
    /// quarantined session answers every further command with a
    /// structured `quarantined` error while its siblings keep serving;
    /// closing it removes the entry.
    quarantined: Mutex<HashMap<SessionId, String>>,
    /// Monotonic count of handler panics the isolation layer caught.
    panics_caught: AtomicU64,
    /// Monotonic count of sessions ever quarantined (does not shrink when
    /// a quarantined session is closed — it is a damage counter).
    quarantined_total: AtomicU64,
}

impl SessionManager {
    /// Creates a manager serving `catalog` with the default cache capacity.
    pub fn new(catalog: Catalog) -> Self {
        SessionManager::with_cache_capacity(catalog, CacheRegistry::DEFAULT_CAPACITY)
    }

    /// Creates a manager retaining at most `cache_capacity` aggregate
    /// caches.
    pub fn with_cache_capacity(catalog: Catalog, cache_capacity: usize) -> Self {
        SessionManager {
            base: RwLock::new(catalog),
            registry: Arc::new(CacheRegistry::new(cache_capacity)),
            sessions: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            pool: OnceLock::new(),
            storage: OnceLock::new(),
            quarantined: Mutex::new(HashMap::new()),
            panics_caught: AtomicU64::new(0),
            quarantined_total: AtomicU64::new(0),
        }
    }

    /// Marks `id` as quarantined with `reason`: every further command
    /// addressed to it answers a structured `quarantined` error until the
    /// session is closed. Idempotent per session for the damage counter —
    /// re-quarantining updates the reason without double-counting.
    pub fn quarantine_session(&self, id: SessionId, reason: impl Into<String>) {
        let mut quarantined = lock_recover(&self.quarantined);
        if quarantined.insert(id, reason.into()).is_none() {
            self.quarantined_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The quarantine reason of `id`, when it is quarantined.
    pub fn quarantine_reason(&self, id: SessionId) -> Option<String> {
        lock_recover(&self.quarantined).get(&id).cloned()
    }

    /// Monotonic count of sessions ever quarantined.
    pub fn quarantined_sessions(&self) -> u64 {
        self.quarantined_total.load(Ordering::Relaxed)
    }

    /// Counts one caught handler panic (called by the isolation layer).
    pub(crate) fn record_panic(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Monotonic count of handler panics the isolation layer caught.
    pub fn panics_caught(&self) -> u64 {
        self.panics_caught.load(Ordering::Relaxed)
    }

    /// The shared cache registry.
    pub fn registry(&self) -> &CacheRegistry {
        &self.registry
    }

    /// Flags the service for graceful shutdown: front-ends stop accepting
    /// work, drain what is in flight, flush replies, and exit. Idempotent.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once [`SessionManager::request_shutdown`] has been called.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Attaches the pooled executor's counters so the `stats` command can
    /// report them. The first attach wins (a manager is served by one
    /// front-end); returns false when stats were already attached.
    pub fn attach_pool_stats(&self, stats: Arc<PoolStats>) -> bool {
        self.pool.set(stats).is_ok()
    }

    /// The attached executor counters, if this manager is served by the
    /// pooled TCP front-end.
    pub fn pool_stats(&self) -> Option<&Arc<PoolStats>> {
        self.pool.get()
    }

    /// Attaches durable storage: from now on `register_table` and
    /// `stream_append` make their table durable before replying and
    /// [`SessionManager::flush_storage`] has somewhere to write. Nothing
    /// else changes — an explain runs the same path with or without it.
    /// The first attach wins; returns false when storage was already
    /// attached.
    pub fn attach_storage(&self, runtime: Arc<StorageRuntime>) -> bool {
        self.storage.set(runtime).is_ok()
    }

    /// The attached storage runtime, if this manager persists to a data
    /// directory.
    pub fn storage(&self) -> Option<&Arc<StorageRuntime>> {
        self.storage.get()
    }

    /// Flushes every base-catalog table (version-gated, so unchanged
    /// tables cost one manifest lookup) to the attached storage. A no-op
    /// without attached storage. Returns the number of table snapshots
    /// actually written.
    ///
    /// Errors are reported per table on stderr rather than propagated: a
    /// flush runs during shutdown, where aborting half-way would lose
    /// *more* state than skipping one failed table.
    pub fn flush_storage(&self) -> usize {
        let Some(runtime) = self.storage.get() else { return 0 };
        let catalog = read_recover(&self.base).clone();
        let mut saved = 0;
        for name in catalog.table_names() {
            let Ok(table) = catalog.table_arc(&name) else { continue };
            match runtime.save_table(&table) {
                Ok(true) => saved += 1,
                Ok(false) => {}
                Err(e) => eprintln!("dbwipes-server: flushing table {name}: {e}"),
            }
        }
        saved
    }

    /// Opens a new session over the current base catalog. Opening takes
    /// the catalog's read lock only — concurrent opens (and routing) never
    /// serialize on each other, only on a concurrent `register_table`.
    pub fn open_session(&self) -> SessionId {
        let catalog = read_recover(&self.base).clone();
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let session = Arc::new(Mutex::new(ServerSession::new(catalog)));
        write_recover(&self.sessions).insert(id, session);
        id
    }

    /// Closes a session; returns false when the id was unknown. Closing
    /// a quarantined session also clears its quarantine record, so the id
    /// space stays clean for long-running servers.
    pub fn close_session(&self, id: SessionId) -> bool {
        lock_recover(&self.quarantined).remove(&id);
        write_recover(&self.sessions).remove(&id).is_some()
    }

    /// The handle of an open session. Callers lock the returned session
    /// for as long as their command runs; other sessions stay available.
    pub fn session(&self, id: SessionId) -> Option<Arc<Mutex<ServerSession>>> {
        read_recover(&self.sessions).get(&id).cloned()
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        read_recover(&self.sessions).len()
    }

    /// Ids of all open sessions, sorted.
    pub fn session_ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = read_recover(&self.sessions).keys().copied().collect();
        ids.sort();
        ids
    }

    /// Registers `table` in the base catalog (replacing any table of the
    /// same name) and eagerly invalidates the registry's caches for it.
    /// Sessions already open keep their current snapshot — like a database,
    /// in-flight transactions finish on the data they started with — while
    /// sessions opened afterwards see the new table.
    pub fn register_table(&self, table: Table) {
        let name = table.name().to_string();
        write_recover(&self.base).register_or_replace(table);
        self.registry.invalidate_table(&name);
        // With storage attached, the registration is durable before the
        // reply goes out: a kill right after this call recovers the table.
        if let Some(runtime) = self.storage.get() {
            let arc = read_recover(&self.base).table_arc(&name).ok();
            if let Some(arc) = arc {
                if let Err(e) = runtime.save_table(&arc) {
                    eprintln!("dbwipes-server: persisting table {name}: {e}");
                }
            }
        }
    }

    /// Names of the tables in the base catalog.
    pub fn table_names(&self) -> Vec<String> {
        read_recover(&self.base).table_names()
    }

    /// `(bitmaps, bytes)` of condition bitmaps the base catalog's current
    /// snapshots retain, summed ([`Table::retained_condition_bitmaps`]).
    pub(crate) fn retained_condition_bitmaps(&self) -> (usize, usize) {
        let base = read_recover(&self.base);
        let tables = base.table_names().into_iter().filter_map(|name| base.table(&name).ok());
        tables.map(Table::retained_condition_bitmaps).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// Streams `rows` into the base table `name` — the service side of the
    /// `stream_append` wire command.
    ///
    /// The append is **command-level all-or-nothing**: every row is
    /// validated against the schema up front, so a malformed row anywhere
    /// in the payload rejects the whole command without mutating — or
    /// copying-on-write — anything. Valid rows are applied in one
    /// [`Table::push_rows`] under the catalog write lock (advancing the
    /// appended epoch once, never the structural epoch). Sessions and
    /// caches hold the snapshot being appended to, so this is always a
    /// copy-on-write — of each column's tail, at most a chunk, never of the
    /// table: what the lock is held for is proportional to the batch. The
    /// new snapshot is then persisted to the attached storage and fanned
    /// out to every open session via
    /// [`ServerSession::adopt_append`] — sessions brushing the appended
    /// table see their result refresh through the absorbed cache instead
    /// of a cold re-execution. Fan-out and persistence are best-effort:
    /// a session that cannot refresh keeps its old snapshot.
    pub fn stream_append(
        &self,
        name: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<StreamAppendReport, CoreError> {
        let appended = rows.len();
        let table = {
            let mut base = write_recover(&self.base);
            let current = base.table(name).map_err(CoreError::from)?;
            for row in &rows {
                current.validate_row(row).map_err(CoreError::from)?;
            }
            if appended > 0 {
                let table = base.table_mut(name).map_err(CoreError::from)?;
                table.push_rows(rows).map_err(CoreError::from)?;
            }
            base.table_arc(name).map_err(CoreError::from)?
        };
        if appended == 0 {
            return Ok(StreamAppendReport {
                appended,
                total_rows: table.num_rows(),
                sessions_refreshed: 0,
                // Nothing needed persisting; report the runtime's standing.
                durable: self.storage.get().map(|runtime| !runtime.is_degraded()).unwrap_or(false),
            });
        }
        // Durable before the reply goes out, like `register_table`. When
        // the write fails past its retry budget the append still succeeds
        // in memory — the runtime flips to degraded mode and the reply
        // carries `durable:false` so the producer knows its rows survive
        // a restart only once a later flush heals the backlog.
        let mut durable = false;
        if let Some(runtime) = self.storage.get() {
            match runtime.save_table(&table) {
                Ok(_) => durable = true,
                Err(e) => {
                    eprintln!("dbwipes-server: persisting appended table {name}: {e}");
                }
            }
        }
        let sessions: Vec<Arc<Mutex<ServerSession>>> =
            read_recover(&self.sessions).values().cloned().collect();
        let mut sessions_refreshed = 0usize;
        for session in sessions {
            // A session whose holder panicked mid-command leaves a
            // poisoned mutex behind; it is quarantined, so skip it
            // instead of taking the whole append down with it.
            let mut s = match session.lock() {
                Ok(guard) => guard,
                Err(_) => continue,
            };
            match s.adopt_append(&table, &self.registry) {
                Ok(true) => sessions_refreshed += 1,
                Ok(false) => {}
                Err(e) => eprintln!("dbwipes-server: refreshing session after append: {e}"),
            }
        }
        Ok(StreamAppendReport {
            appended,
            total_rows: table.num_rows(),
            sessions_refreshed,
            durable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_data::{generate_sensor, SensorConfig};

    fn manager() -> (SessionManager, String) {
        let ds = generate_sensor(&SensorConfig {
            num_readings: 2_700,
            failing_sensors: vec![15],
            ..SensorConfig::small()
        });
        let mut catalog = Catalog::new();
        catalog.register(ds.table.clone()).unwrap();
        (SessionManager::new(catalog), ds.window_query())
    }

    #[test]
    fn sessions_are_independent_views_over_shared_tables() {
        let (m, query) = manager();
        let a = m.open_session();
        let b = m.open_session();
        assert_ne!(a, b);
        assert_eq!(m.session_count(), 2);
        assert_eq!(m.session_ids(), vec![a, b]);

        let sa = m.session(a).unwrap();
        let sb = m.session(b).unwrap();
        // Both sessions see the same snapshot (no data copied).
        {
            let sa = sa.lock().unwrap();
            let sb = sb.lock().unwrap();
            let ta = sa.dashboard().backend().catalog().table_arc("readings").unwrap();
            let tb = sb.dashboard().backend().catalog().table_arc("readings").unwrap();
            assert!(Arc::ptr_eq(&ta, &tb));
        }
        // Session A runs a query; session B's state is untouched.
        sa.lock().unwrap().dashboard_mut().run_query(&query).unwrap();
        assert!(sa.lock().unwrap().dashboard().result().is_some());
        assert!(sb.lock().unwrap().dashboard().result().is_none());

        assert!(m.close_session(a));
        assert!(!m.close_session(a));
        assert!(m.session(a).is_none());
        assert_eq!(m.session_count(), 1);
    }

    #[test]
    fn repeated_debug_hits_the_shared_registry_within_and_across_sessions() {
        let (m, query) = manager();
        let run_debug = |id: SessionId| {
            let s = m.session(id).unwrap();
            let mut s = s.lock().unwrap();
            s.dashboard_mut().run_query(&query).unwrap();
            let outputs: Vec<usize> = (0..s.dashboard().result().unwrap().len()).collect();
            s.dashboard_mut().select_outputs(outputs);
            s.dashboard_mut().set_metric(dbwipes_core::ErrorMetric::too_high("std_temp", 4.0));
            s.debug_cached(m.registry()).unwrap().1.cache_hit
        };
        let a = m.open_session();
        assert!(!run_debug(a), "first explain ever must build");
        assert!(run_debug(a), "second explain in the same session must hit");
        let b = m.open_session();
        assert!(run_debug(b), "another session asking the same question must hit");

        // One aggregate-cache build total; the two repeats carried the
        // identical request (same S, same ε over the same snapshot), so
        // they replayed the memoized explanation without touching tier 1.
        let stats = m.registry().stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.explanation_misses, 1);
        assert_eq!(stats.explanation_hits, 2);
        assert!(stats.explanation_hit_rate() > 0.6);
        assert_eq!(stats.explanation_entries, 1);
        let sa = m.session(a).unwrap();
        let sa = sa.lock().unwrap();
        assert_eq!((sa.cache_hits(), sa.cache_misses()), (1, 1));
    }

    #[test]
    fn changed_brushes_miss_the_memo_but_reuse_the_aggregate_cache() {
        let (m, query) = manager();
        let a = m.open_session();
        let sa = m.session(a).unwrap();
        let mut s = sa.lock().unwrap();
        s.dashboard_mut().run_query(&query).unwrap();
        s.dashboard_mut().set_metric(dbwipes_core::ErrorMetric::too_high("std_temp", 4.0));

        s.dashboard_mut().select_outputs(vec![0]);
        let (_, report) = s.debug_cached(m.registry()).unwrap();
        assert!(!report.cache_hit, "first ever debug builds everything");

        // A different ε on the same statement: the pipeline must rerun
        // (different request), but over the retained aggregate cache.
        s.dashboard_mut().select_outputs(vec![0]);
        s.dashboard_mut().set_metric(dbwipes_core::ErrorMetric::too_high("std_temp", 5.0));
        let (_, report) = s.debug_cached(m.registry()).unwrap();
        assert!(report.cache_hit && !report.memo_hit, "the statement-level cache must be reused");
        let stats = m.registry().stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!((stats.explanation_misses, stats.explanation_hits), (2, 0));
        assert_eq!(stats.explanation_entries, 2);
    }

    fn reading(sensor: i64, temp: f64) -> Vec<Value> {
        // Schema: sensorid, epoch, hour, window, temp, humidity, light,
        // voltage. Everything lands in window 0.
        vec![
            Value::Int(sensor),
            Value::Int(0),
            Value::Int(0),
            Value::Int(0),
            Value::Float(temp),
            Value::Float(40.0),
            Value::Float(300.0),
            Value::Float(2.5),
        ]
    }

    #[test]
    fn stream_append_is_all_or_nothing_and_advances_only_the_appended_epoch() {
        let (m, _) = manager();
        let before = {
            let base = m.session(m.open_session()).unwrap();
            let s = base.lock().unwrap();
            let t = s.dashboard().backend().catalog().table_arc("readings").unwrap();
            (t.num_rows(), t.epoch())
        };

        // A malformed row anywhere in the payload rejects the whole command.
        let mut bad = reading(1, 50.0);
        bad.truncate(3);
        assert!(m.stream_append("readings", vec![reading(1, 50.0), bad]).is_err());
        assert!(m.stream_append("missing", vec![reading(1, 50.0)]).is_err());
        let t = {
            let base = m.session(m.open_session()).unwrap();
            let s = base.lock().unwrap();
            s.dashboard().backend().catalog().table_arc("readings").unwrap()
        };
        assert_eq!((t.num_rows(), t.epoch()), before, "failed appends must not mutate");

        // A valid stream advances the appended epoch only.
        let rows: Vec<Vec<Value>> = (0..5).map(|i| reading(i, 50.0)).collect();
        let report = m.stream_append("readings", rows).unwrap();
        assert_eq!(report.appended, 5);
        assert_eq!(report.total_rows, before.0 + 5);
        let base = m.base.read().unwrap().table_arc("readings").unwrap();
        assert_eq!(base.epoch().structural, before.1.structural);
        assert!(base.epoch().appended > before.1.appended);
        assert!(base.epoch().is_append_descendant_of(before.1));

        // The empty stream is a validated no-op.
        let report = m.stream_append("readings", Vec::new()).unwrap();
        assert_eq!((report.appended, report.sessions_refreshed), (0, 0));
    }

    #[test]
    fn stream_append_refreshes_brushing_sessions_through_absorbed_caches() {
        let (m, query) = manager();
        // Session A is mid-investigation: brushed outputs, picked ε,
        // explained once. Session B is idle (no query).
        let a = m.open_session();
        let b = m.open_session();
        let sa = m.session(a).unwrap();
        {
            let mut s = sa.lock().unwrap();
            s.dashboard_mut().run_query(&query).unwrap();
            let outputs: Vec<usize> = (0..s.dashboard().result().unwrap().len()).collect();
            s.dashboard_mut().select_outputs(outputs);
            s.dashboard_mut().set_metric(dbwipes_core::ErrorMetric::too_high("std_temp", 4.0));
            s.debug_cached(m.registry()).unwrap();
        }
        let stats = m.registry().stats();
        assert_eq!((stats.misses, stats.append_absorbs), (1, 0));

        let rows: Vec<Vec<Value>> = (0..64).map(|i| reading(i % 20, 60.0)).collect();
        let report = m.stream_append("readings", rows).unwrap();
        assert_eq!(report.appended, 64);
        assert_eq!(report.sessions_refreshed, 2, "both open sessions adopt the snapshot");

        // The retained tier-1 cache was fast-forwarded, not rebuilt: the
        // refresh accounts as an absorb, never as a miss.
        let stats = m.registry().stats();
        assert_eq!((stats.misses, stats.append_absorbs), (1, 1));
        assert_eq!(stats.entries, 1);

        // Session A's displayed result is bit-identical to a cold
        // execution over the grown table, selections intact.
        let grown = m.base.read().unwrap().table_arc("readings").unwrap();
        {
            let s = sa.lock().unwrap();
            let shown = s.dashboard().result().unwrap();
            assert_eq!(
                s.dashboard().backend().catalog().table("readings").unwrap().epoch(),
                grown.epoch()
            );
            let mut fresh_catalog = Catalog::new();
            fresh_catalog.register((*grown).clone()).unwrap();
            let fresh = dbwipes_core::DbWipes::with_catalog(fresh_catalog).query(&query).unwrap();
            assert_eq!(shown.rows, fresh.rows);
            assert_eq!(shown.group_keys, fresh.group_keys);
            assert!(!s.dashboard().selected_outputs().is_empty());
            assert_eq!(s.dashboard().state(), dbwipes_dashboard::SessionState::OutputsSelected);
        }
        // Session B silently follows the snapshot.
        let sb = m.session(b).unwrap();
        let s = sb.lock().unwrap();
        let tb = s.dashboard().backend().catalog().table_arc("readings").unwrap();
        assert!(Arc::ptr_eq(&tb, &grown));

        // A follow-up debug in session A runs over the absorbed cache: no
        // new tier-1 miss appears.
        drop(s);
        {
            let mut s = sa.lock().unwrap();
            s.dashboard_mut().set_metric(dbwipes_core::ErrorMetric::too_high("std_temp", 4.5));
            s.debug_cached(m.registry()).unwrap();
        }
        let stats = m.registry().stats();
        assert_eq!(stats.misses, 1, "appends must not cause tier-1 rebuilds");
    }

    #[test]
    fn sessions_on_private_copies_keep_their_snapshot_across_appends() {
        let (m, query) = manager();
        let a = m.open_session();
        let sa = m.session(a).unwrap();
        {
            let mut s = sa.lock().unwrap();
            s.dashboard_mut().run_query(&query).unwrap();
            // The session privately soft-deletes a row: its snapshot is no
            // longer an append-ancestor of anything the base produces.
            s.dashboard_mut()
                .backend_mut()
                .catalog_mut()
                .table_mut("readings")
                .unwrap()
                .delete_row(dbwipes_storage::RowId(0))
                .unwrap();
        }
        let report = m.stream_append("readings", vec![reading(1, 50.0)]).unwrap();
        assert_eq!(report.appended, 1);
        assert_eq!(report.sessions_refreshed, 0, "a diverged session keeps its private copy");
        let s = sa.lock().unwrap();
        let t = s.dashboard().backend().catalog().table_arc("readings").unwrap();
        assert_eq!(t.visible_rows(), t.num_rows() - 1, "private delete still in effect");
    }

    #[test]
    fn reregistering_a_table_invalidates_and_leaves_open_sessions_on_their_snapshot() {
        let (m, query) = manager();
        let a = m.open_session();
        let sa = m.session(a).unwrap();
        {
            let mut s = sa.lock().unwrap();
            s.dashboard_mut().run_query(&query).unwrap();
            s.dashboard_mut().select_outputs(vec![0]);
            s.dashboard_mut().set_metric(dbwipes_core::ErrorMetric::too_high("std_temp", 0.0));
            s.debug_cached(m.registry()).unwrap();
        }
        assert_eq!(m.registry().len(), 1);

        // Replace the table with a fresh (different) dataset.
        let ds2 = generate_sensor(&SensorConfig { num_readings: 1_350, ..SensorConfig::small() });
        m.register_table(ds2.table.clone());
        assert_eq!(m.registry().len(), 0, "re-registration evicts the table's caches");
        assert_eq!(m.table_names(), vec!["readings".to_string()]);

        // The open session still works over its original snapshot...
        let rows_a = {
            let mut s = sa.lock().unwrap();
            s.dashboard_mut().run_query(&query).unwrap().len()
        };
        // ...while a new session sees the replacement table.
        let b = m.open_session();
        let sb = m.session(b).unwrap();
        let rows_b = {
            let mut s = sb.lock().unwrap();
            s.dashboard_mut().run_query(&query).unwrap().len()
        };
        assert!(rows_a >= rows_b, "old snapshot has more readings ({rows_a} vs {rows_b})");
    }
}
