//! Durable storage behind the service: snapshot-on-register, flush-on-
//! shutdown, restore-on-startup, and the fault policy that keeps the
//! service answering when the disk does not.
//!
//! A [`StorageRuntime`] wraps a pluggable [`StorageBackend`] (the
//! filesystem [`FsBackend`] from [`StorageRuntime::open`]; tests pass a
//! fault-injecting one to [`StorageRuntime::with_backend`]) with the
//! service-level policy and counters the `stats` command reports:
//!
//! * **Tables are made durable eagerly** — `register` persists the table
//!   before the reply is sent, and `stream_append` persists the appended
//!   rows before its ack, so a kill at any later point still recovers
//!   them. [`StorageRuntime::save_table`] is the only way in; what it
//!   costs is the backend's decision — a whole-file write for a new table,
//!   one data record proportional to the batch for a grown one, nothing for a table that is already durable
//!   (which makes the shutdown flush idempotent and cheap). The gate and
//!   the `stats` counters read what the backend knows to be durable; no
//!   file is re-read to answer them.
//! * **Writes retry with capped exponential backoff** — a failed table
//!   write (whole file or appended record alike) is retried up to 3 times, sleeping
//!   10 ms doubled per attempt and capped at 1 s, but only when
//!   [`StorageError::is_transient`] says a retry could help: a full disk
//!   or a corrupt snapshot fails fast.
//! * **Exhausted retries degrade, they never kill** — the runtime flips
//!   into *degraded* mode: queries, brushes and explains keep serving
//!   bit-identically from memory, `stream_append` keeps absorbing
//!   in-memory (flagging `durable:false` in its reply), and the `stats`
//!   `health` block reports the degradation. The next table write that
//!   actually succeeds — it carries the whole backlog, as one record when
//!   the table only grew — self-heals the runtime back to healthy.
//! * **Restore brings back tables, nothing derived** — the manifest
//!   rebuilds the [`Catalog`] with every table's persisted identity (and
//!   its version, the row count), each table loaded once. Aggregate
//!   caches and condition bitmaps belong to the snapshot they index and are rebuilt on first use by the code that
//!   builds them cold; rebuilding costs about what decoding an image of
//!   them did, so none is written.
//!
//! The decode path trusts nothing: every record of a table file, its
//! header included, is checksummed by the storage layer.

use dbwipes_storage::{Catalog, FsBackend, StorageBackend, StorageError, Table};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Transient-fault retries per write, after the first try.
const STORAGE_RETRIES: u32 = 3;

/// The first retry's backoff; each later one doubles it.
const BASE_BACKOFF: Duration = Duration::from_millis(10);

/// Hard ceiling on a single backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// The service's handle on durable storage: a pluggable backend plus the
/// retry/degradation policy and the counters surfaced by the `stats`
/// command. See the module docs for the save/restore/fault policy.
#[derive(Debug)]
pub struct StorageRuntime {
    backend: Box<dyn StorageBackend>,
    snapshot_loads: AtomicU64,
    /// True while persistence is known broken; queries keep serving.
    degraded: AtomicBool,
    /// Failed snapshot writes since the last success (resets on heal).
    consecutive_failures: AtomicU64,
    /// Monotonic count of retry attempts (not first tries).
    retries: AtomicU64,
    /// Monotonic count of healthy→degraded transitions.
    degraded_entries: AtomicU64,
    /// The error that caused the most recent failure, until healed.
    last_persist_error: Mutex<Option<String>>,
}

/// Point-in-time reading of the runtime's counters, as reported by the
/// `stats` command's `storage` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageCounters {
    /// Whole-file writes: first saves, saves over a file this process has
    /// not read, and compactions. Appends to a durable table write data
    /// records instead.
    pub snapshot_saves: u64,
    /// Data records appended.
    pub segment_appends: u64,
    /// Bytes of those records.
    pub segment_bytes: u64,
    /// Whole-file writes made because the records appended to a table's
    /// file had grown to the size of its last whole-file write (counted in
    /// `snapshot_saves` too).
    pub compactions: u64,
    /// Table snapshots loaded during catalog restore.
    pub snapshot_loads: u64,
    /// Bytes the data directory currently occupies.
    pub bytes_on_disk: u64,
}

/// Point-in-time reading of the runtime's fault state, as reported by the
/// `stats` command's `health` block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StorageHealth {
    /// True while persistence is broken; the service still answers every
    /// query from memory and `stream_append` flags `durable:false`.
    pub degraded: bool,
    /// The failure that caused the current/most recent degradation;
    /// cleared when a later write self-heals the runtime.
    pub last_persist_error: Option<String>,
    /// Monotonic count of retry attempts across all writes.
    pub retries: u64,
    /// Failed snapshot writes since the last successful one.
    pub consecutive_failures: u64,
    /// Monotonic count of healthy→degraded transitions (a self-healed
    /// runtime keeps its history).
    pub degraded_entries: u64,
}

impl StorageRuntime {
    /// Opens (creating if needed) the data directory at `dir` through the
    /// filesystem backend.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Ok(Self::with_backend(Box::new(FsBackend::open(dir.as_ref())?)))
    }

    /// Builds a runtime over an arbitrary backend — the seam fault tests
    /// use to inject scripted faults (a
    /// [`FaultInjectingBackend`](dbwipes_storage::FaultInjectingBackend)).
    pub fn with_backend(backend: Box<dyn StorageBackend>) -> Self {
        StorageRuntime {
            backend,
            snapshot_loads: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            consecutive_failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            degraded_entries: AtomicU64::new(0),
            last_persist_error: Mutex::new(None),
        }
    }

    /// True when the manifest lists no tables — a fresh data directory
    /// that should be seeded rather than restored.
    pub fn is_empty(&self) -> Result<bool, StorageError> {
        Ok(self.backend.list_manifest()?.entries.is_empty())
    }

    /// Rebuilds the full catalog from the manifest. Every restored table
    /// keeps its persisted identity and row count, so cache fingerprints
    /// minted before the restart still match. Each table is loaded once:
    /// the catalog is then the one writer of its lineage.
    pub fn restore_catalog(&self) -> Result<Catalog, StorageError> {
        let manifest = self.backend.list_manifest()?;
        let mut catalog = Catalog::new();
        for entry in &manifest.entries {
            let table = self.backend.load_table(entry.table_id)?;
            self.snapshot_loads.fetch_add(1, Ordering::Relaxed);
            catalog.register_or_replace(table);
        }
        Ok(catalog)
    }

    /// Runs one write, retrying transient failures with capped
    /// exponential backoff. Permanent errors (ENOSPC, corruption,
    /// logical) fail fast — sleeping cannot fix them.
    fn write_with_retries<T>(
        &self,
        mut op: impl FnMut() -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(e) if e.is_transient() && attempt < STORAGE_RETRIES => {
                    let backoff = (BASE_BACKOFF * (1 << attempt)).min(MAX_BACKOFF);
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                    std::thread::sleep(backoff);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// A snapshot write failed even after retries: record the error and
    /// flip into degraded mode (counting the transition once per
    /// healthy→degraded edge).
    fn record_persist_failure(&self, error: &StorageError) {
        self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
        *self.last_persist_error.lock().unwrap_or_else(|p| p.into_inner()) =
            Some(error.to_string());
        if !self.degraded.swap(true, Ordering::Relaxed) {
            self.degraded_entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A snapshot write actually reached the backend: self-heal.
    fn record_persist_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.degraded.store(false, Ordering::Relaxed);
        *self.last_persist_error.lock().unwrap_or_else(|p| p.into_inner()) = None;
    }

    /// Makes `table` durable unless it already is. Re-registration under
    /// the same name gets a fresh table id, so any manifest entry holding
    /// the *name* under an older id is evicted — otherwise dead snapshots
    /// would accumulate and be restored as duplicate tables.
    ///
    /// Writes retry per the module policy; an exhausted write returns the
    /// error *and* flips the runtime into degraded mode, while a write
    /// that reaches the backend (`Ok(true)`) self-heals it. The no-op
    /// (`Ok(false)`: the table, or a later version of it that a
    /// concurrent save got to first, is already durable) proves nothing
    /// about the disk and touches health state in neither direction.
    pub fn save_table(&self, table: &Table) -> Result<bool, StorageError> {
        let manifest = self.backend.list_manifest()?;
        let lower = table.name().to_ascii_lowercase();
        for entry in &manifest.entries {
            if entry.table_id != table.id() && entry.name.to_ascii_lowercase() == lower {
                self.backend.evict(entry.table_id)?;
            }
        }
        if manifest.entry(table.id()).is_some_and(|entry| entry.num_rows >= table.version()) {
            return Ok(false);
        }
        match self.write_with_retries(|| self.backend.save_table(table)) {
            Ok(0) => Ok(false),
            Ok(_) => {
                self.record_persist_success();
                Ok(true)
            }
            Err(e) => {
                self.record_persist_failure(&e);
                Err(e)
            }
        }
    }

    /// The counters the `stats` command reports. `bytes_on_disk` is read
    /// live from the data directory (0 if it cannot be listed).
    pub fn counters(&self) -> StorageCounters {
        let written = self.backend.write_counters();
        StorageCounters {
            snapshot_saves: written.snapshot_saves,
            segment_appends: written.segment_appends,
            segment_bytes: written.segment_bytes,
            compactions: written.compactions,
            snapshot_loads: self.snapshot_loads.load(Ordering::Relaxed),
            bytes_on_disk: self.backend.bytes_on_disk().unwrap_or(0),
        }
    }

    /// The fault state the `stats` command's `health` block reports.
    pub fn health(&self) -> StorageHealth {
        StorageHealth {
            degraded: self.degraded.load(Ordering::Relaxed),
            last_persist_error: self
                .last_persist_error
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .clone(),
            retries: self.retries.load(Ordering::Relaxed),
            consecutive_failures: self.consecutive_failures.load(Ordering::Relaxed),
            degraded_entries: self.degraded_entries.load(Ordering::Relaxed),
        }
    }

    /// True while persistence is broken (see [`StorageHealth`]).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }
}
