//! Abstract interpretation over properties: proven facts that feed lints
//! and make the backend table quantitative.
//!
//! The framework is a classic lattice/fixpoint design, specialised to the
//! chain shape of swmon properties:
//!
//! * [`domain`] — the value lattice: constant propagation refined by
//!   unsigned intervals ([`AbsValue`]);
//! * [`env`] — the abstract environment over bound variables ([`AbsEnv`]);
//! * [`fields`] — per-field kinds and wire widths, seeding the intervals
//!   and pricing the resource model;
//! * [`transfer`] — abstract guard evaluation ([`transfer::apply`]):
//!   satisfiability plus the post-binding environment;
//! * [`cfg`] — the per-property control-flow graph ([`Cfg`]): stages as
//!   nodes, spawn/advance/timeout/clear/expire as edges;
//! * [`fixpoint`] — the worklist solver ([`fixpoint::solve`]);
//! * [`facts`] — synthesis ([`property_facts`]): the refined event-class
//!   mask, stage liveness and spawn-cardinality bounds;
//! * [`resources`] — the intrinsic per-instance state model
//!   ([`ResourceEstimate`]), which `swmon-backends` turns into per-backend
//!   flow-table/register/xFSM figures.
//!
//! Everything here is *proof-bearing*: a fact is only emitted when the
//! abstraction guarantees it for every trace. The differential suite
//! (`tests/analysis_differential.rs` at the workspace root) checks the
//! mask and liveness claims that SW010/SW012 rest on: a monitor fed only
//! the events the refined mask admits reports exactly the violations of
//! one fed the whole trace.

pub mod cfg;
pub mod domain;
pub mod env;
pub mod facts;
pub mod fields;
pub mod fixpoint;
pub mod resources;
pub mod transfer;

pub use cfg::{Cfg, Edge, EdgeKind};
pub use domain::AbsValue;
pub use env::AbsEnv;
pub use facts::{property_facts, PropertyFacts};
pub use fields::{field_bits, field_kind, field_top, FieldKind};
pub use fixpoint::Solution;
pub use resources::{ResourceEstimate, VarCost, IDENTITY_BITS, TIMER_BITS};
