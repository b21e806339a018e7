#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # gossipopt-sim
//!
//! A PeerSim-equivalent peer-to-peer network simulator, written from scratch
//! for the gossipopt reproduction.
//!
//! The paper evaluates its architecture inside PeerSim's cycle-driven
//! kernel; this crate reimplements those semantics in Rust and adds the
//! event-driven engine PeerSim also offers:
//!
//! * [`cycle::CycleEngine`] — synchronous rounds. Every *tick* each live
//!   node, in a freshly shuffled order, runs its periodic action and the
//!   kernel routes any resulting messages. Intra-tick request/reply is
//!   supported (PeerSim's cycle-based protocols call peers directly; we
//!   model this as an immediately drained message queue with a hop budget).
//! * [`event::EventEngine`] — a discrete-event kernel with per-message
//!   latency models, per-node periodic timers with jittered phases, and the
//!   same [`Application`] protocol interface.
//!
//! Shared infrastructure: [`transport`] (loss and latency models),
//! [`churn`] (crash/join processes), and deterministic PRNG streams per
//! node derived from one root seed (see `gossipopt-util`).
//!
//! The kernel knows nothing about optimization: protocols are arbitrary
//! state machines implementing [`Application`]. Global measurements are
//! taken by *observers* — closures given read access to every live node,
//! exactly like PeerSim's `Control` components.

pub mod app;
pub mod churn;
pub mod cycle;
pub mod event;
pub mod ids;
mod slots;
pub mod transport;

pub use app::{frame_class, Application, Ctx, FrameSavings, WireCounts, MAX_WIRE_KINDS};
pub use churn::ChurnConfig;
pub use cycle::{CycleConfig, CycleEngine, StepReport};
pub use event::{EventConfig, EventEngine};
pub use ids::{NodeId, Ticks};
pub use slots::NodesView;
pub use transport::{Latency, Transport};

/// Observer verdict: keep simulating or stop at this observation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Continue the simulation.
    Continue,
    /// Stop; engines return the time at which the stop was requested.
    Stop,
}
