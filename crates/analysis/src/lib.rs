//! # onoff-analysis
//!
//! Small, dependency-light statistics toolkit backing the figures and
//! tables of the reproduction: quantiles (which also give the CDF
//! landmarks of Figs. 11 and 17a, printed by `onoff_bench::output`),
//! violin summaries (Fig. 10, 19), Spearman/Pearson correlation (Fig. 21's
//! −0.65 / +0.66 coefficients), histograms/bucketing (Fig. 9b's likelihood
//! quartiles), bootstrap confidence intervals, and a plain-text table
//! renderer used by the reproduction binaries to print paper-style rows.

pub mod bootstrap;
pub mod corr;
pub mod hist;
pub mod quantile;
pub mod table;
pub mod violin;

pub use bootstrap::{bootstrap_ci, proportion_ci, ConfidenceInterval};
pub use corr::{pearson, spearman};
pub use hist::{likelihood_quartile_shares, Histogram};
pub use quantile::{mean, median, quantile, stddev, Summary};
pub use table::TextTable;
pub use violin::ViolinSummary;
