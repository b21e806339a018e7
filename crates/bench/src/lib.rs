#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # gossipopt-bench
//!
//! Reporting helpers and extension experiments shared by the `repro`
//! binary (which regenerates every table and figure of the paper) and the
//! criterion benchmark suite.

pub mod extensions;
pub mod plot;
pub mod report;
