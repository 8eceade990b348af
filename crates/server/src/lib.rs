//! # dbwipes-server
//!
//! A concurrent, multi-session DBWipes service: the backend the paper's
//! web dashboard (Figure 2) talks to, grown from the single-user
//! [`DashboardSession`](dbwipes_dashboard::DashboardSession) into
//! something that can serve many analysts at once.
//!
//! Three pieces:
//!
//! * [`SessionManager`] — hosts many dashboard sessions over one shared
//!   `Arc`-backed catalog, addressed by [`SessionId`], each behind its own
//!   lock so concurrent clients never block each other's brush→debug
//!   loops.
//! * [`CacheRegistry`] — a two-tier cache shared across brushes, repeated
//!   explains and sessions, keyed by [`CacheFingerprint`] (canonical
//!   statement + table data version), with LRU eviction and eager
//!   invalidation on table re-registration. Tier 1 keeps
//!   [`GroupedAggregateCache`]s alive (one statement execution each);
//!   tier 2 memoizes whole explanations per exact request
//!   ([`ExplainKey`]), so a repeated `debug!` on an unchanged question is
//!   near-free — measured at ~5000× faster by `bench_server_sessions`.
//! * the line-delimited JSON [`protocol`] — `run_query`, `plot`, `zoom`,
//!   `brush_outputs`, `brush_inputs`, `set_metric`, `debug`,
//!   `click_predicate`, `undo`, `batch`, `shutdown` and friends — served
//!   by [`SessionManager::handle_line`] and exposed over stdin/stdout or
//!   TCP by the `dbwipes-server` binary.
//! * the bounded worker-pool TCP [`executor`] — a fixed worker pool over
//!   std's bounded `sync_channel`, with `busy` backpressure replies, idle
//!   timeouts, and graceful drain on the `shutdown` ctrl-line — so heavy
//!   traffic degrades into explicit `busy` answers instead of unbounded
//!   threads and memory.
//!
//! [`GroupedAggregateCache`]: dbwipes_engine::GroupedAggregateCache
//! [`CacheFingerprint`]: dbwipes_engine::CacheFingerprint
//! [`SessionManager::handle_line`]: SessionManager::handle_line
//!
//! ## Example
//!
//! ```
//! use dbwipes_server::SessionManager;
//! use dbwipes_data::{generate_sensor, SensorConfig};
//! use dbwipes_storage::Catalog;
//!
//! let data = generate_sensor(&SensorConfig::small());
//! let mut catalog = Catalog::new();
//! catalog.register(data.table.clone()).unwrap();
//! let manager = SessionManager::new(catalog);
//!
//! let open = manager.handle_line(r#"{"cmd":"open_session"}"#);
//! assert!(open.contains(r#""ok":true"#));
//! let reply = manager.handle_line(
//!     r#"{"cmd":"run_query","session":1,"sql":"SELECT window, avg(temp) FROM readings GROUP BY window"}"#,
//! );
//! assert!(reply.contains(r#""row_count""#));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
pub mod durability;
pub mod executor;
pub mod json;
pub mod manager;
pub mod protocol;
pub mod registry;
mod service;

pub use client::LineClient;
pub use durability::{StorageCounters, StorageHealth, StorageRuntime};
pub use executor::{serve_pooled, PoolConfig, PoolSnapshot, PoolStats};
pub use json::{Json, JsonWriter, PointWriter};
pub use manager::{DebugCacheReport, ServerSession, SessionId, SessionManager, StreamAppendReport};
pub use protocol::{
    parse_request, parse_request_value, Command, Request, WireError, MAX_BATCH_COMMANDS,
    MAX_STREAM_APPEND_ROWS, PROTOCOL_VERSION, WIRE_COMMANDS,
};
pub use registry::{CacheRegistry, CacheStats, ExplainKey};
