#![forbid(unsafe_code)]
//! # swmon-bench — the experiment harness
//!
//! Every table and figure-equivalent of the paper as a library function:
//! the `repro` binary prints them, integration tests assert their shapes,
//! and the Criterion benches measure the wall-clock side.
//!
//! | Experiment | Paper artifact | Module |
//! |---|---|---|
//! | E1 | Table 1 (property → features) | `swmon_props::table1` |
//! | E2 | Table 2 (approach → features) | `swmon_backends::table2` |
//! | E3 | Sec 3.3: pipeline depth vs. active instances | [`experiments::e3`] |
//! | E4 | Sec 3.3: state-update mechanisms vs. line rate | [`experiments::e4`] |
//! | E5 | Sec 1: external-monitor traffic cost | [`experiments::e5`] |
//! | E6 | Feature 9: inline vs. split processing | [`experiments::e6`] |
//! | E7 | Feature 10: provenance cost | [`experiments::e7`] |
//! | E8 | Sec 2.3: timeout-refresh subtlety | [`experiments::e8`] |
//! | E9 | soundness: detection matrix | [`experiments::e9`] |
//! | E10 | per-approach monitoring overhead | [`experiments::e10`] |
//! | E16 | violation store: ingest, SWQL latency, live fidelity | [`experiments::e16`] |

pub mod analyze;
pub mod benchcheck;
pub mod cli;
pub mod experiments;
pub mod lint;
pub mod storequery;
pub mod table;

pub use table::TextTable;
