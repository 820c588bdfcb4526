//! Histograms, CDFs, time series and table rendering for the OptChain
//! experiment harness.
//!
//! Every figure in the paper's evaluation is a statistic over simulation
//! output: degree distributions (Fig 2), throughput/latency grids (Fig 3,
//! 4, 8, 9), commit-rate time series (Fig 5), queue-size time series
//! (Fig 6, 7) and a latency CDF (Fig 10). This crate provides the small,
//! dependency-free statistical toolkit those figures are computed with:
//!
//! * [`Histogram`] — integer-bucketed counts with log-log views;
//! * [`Cdf`] — empirical distribution with percentile queries;
//! * [`TimeSeries`] — fixed-width time bins with min/max/mean/count;
//! * [`Table`] — fixed-width text table renderer used by every
//!   table/figure binary to print the paper's rows.
//!
//! # Example
//!
//! ```
//! use optchain_metrics::Cdf;
//!
//! let mut latency = Cdf::new();
//! for v in [1.0, 2.0, 3.0] {
//!     latency.record(v);
//! }
//! assert_eq!(latency.mean(), 2.0);
//! assert_eq!(latency.percentile(100.0), 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod histogram;
mod table;
mod timeseries;

pub use cdf::Cdf;
pub use histogram::Histogram;
pub use table::{fmt_f, Table};
pub use timeseries::{Bin, TimeSeries};
