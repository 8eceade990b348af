//! # dbwipes-dashboard
//!
//! The headless DBWipes dashboard: every interaction of the demo's web
//! front-end (Figure 2) is available as a programmatic API, so the
//! examples, integration tests and experiment harness can drive the same
//! tight loop conference attendees drove with a mouse:
//!
//! 1. submit an aggregate SQL query ([`DashboardSession::run_query`]; the
//!    query form shows [`DashboardSession::current_sql`]),
//! 2. view the result scatterplot ([`result_series`], [`render_ascii`]),
//! 3. brush suspicious outputs S ([`Brush`]),
//! 4. zoom into the raw tuples and brush suspicious inputs D′
//!    ([`zoom_series`]),
//! 5. pick an error metric from the dynamically generated form
//!    ([`error_form_choices`]),
//! 6. run the ranked-provenance backend and read the ranked predicates,
//! 7. click a predicate to rewrite and re-run the query
//!    ([`DashboardSession::click_predicate`]).
//!
//! [`DashboardSession`] ties the steps together into the Figure-1 state
//! machine.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod forms;
pub mod render;
pub mod scatter;
pub mod session;

pub use forms::error_form_choices;
pub use render::render_ascii;
pub use scatter::{
    result_series, zoom_points, zoom_series, Brush, PointRef, ScatterPoint, ScatterSeries,
    ZoomPoints,
};
pub use session::{CacheSource, DashboardSession, SessionState};
