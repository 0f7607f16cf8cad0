//! The swmon benchmark: seeded workloads driven through the program the
//! way a user runs it, end-to-end metrics from untraced runs, and a
//! per-layer ledger from a separate traced run. See `README.md`.

pub mod bench;
pub mod report;
pub mod session;
pub mod spans;
pub mod storeq;
pub mod traced;
pub mod traffic;
