//! # sw-client — the mobile unit (MU side)
//!
//! Everything that runs on the palmtop:
//!
//! * [`cache`] — the MU cache: item → (value, validity timestamp `t_x`),
//!   with optional capacity-bounded eviction under a pluggable
//!   `sw-capacity` replacement policy (LRU/LFU/window-age) plus ghost
//!   bookkeeping for the capacity-miss statistics;
//! * [`kernel`] — the static report-processing rules, transcribed from
//!   §3 and §10 of the paper and written once: TS (window check,
//!   per-item timestamp comparison), AT (gap check, drop reported ids),
//!   SIG (syndrome decoding over cached combined signatures), NC, and
//!   the hybrid and group extensions. The boxed unit and the columnar
//!   fleet both run them;
//! * [`handler`] — the [`handler::ReportHandler`] seam a boxed unit
//!   processes reports through, and [`handler::StaticHandler`], the
//!   kernel behind that seam;
//! * [`mu`] — the [`mu::MobileUnit`] driver that ties the sleep process,
//!   the query stream, the pending-query list `Q_i`, and the handler
//!   together, implementing the interval semantics of Figure 2: queries
//!   posed during `(T_{i−1}, T_i]` are answered only after the report at
//!   `T_i` is processed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod handler;
pub mod kernel;
pub mod mu;

pub use cache::{Cache, CacheEntry};
pub use sw_capacity::{GhostFate, ReplacementPolicy};
pub use handler::{ProcessOutcome, ReportHandler, StaticHandler};
pub use kernel::StaticSpec;
pub use mu::{IntervalReport, MobileUnit, MuConfig, MuStats, PendingQuery};
