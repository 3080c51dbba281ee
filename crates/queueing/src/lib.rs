//! # dqa-queueing — queueing-station components for the DB-site model
//!
//! The paper models a database site as a two-resource queueing station
//! (Figure 2): a CPU served **processor-sharing** and a set of disks served
//! **first-come-first-served**, fed by terminals and connected to the other
//! sites by a **token-ring** local network (Section 2). This crate implements
//! each of those service centers as a reusable component that plugs into the
//! [`dqa_sim`] event loop, plus the textbook closed-form results used to
//! validate them.
//!
//! Components follow a common embedding pattern: they do not schedule events
//! themselves. Instead, every state-changing call returns the time of the
//! next completion (if it changed), and the *host model* schedules an event
//! for it. Preemptive-resume stations ([`PsServer`]) additionally return an
//! epoch token, because every arrival or departure supersedes the completion
//! announced before it. A host may keep the superseded events queued and
//! discard them on delivery by the token (lazy cancellation), or re-arm one
//! timer per server ([`dqa_sim::EventQueue::arm`]) so that only the current
//! announcement is ever pending; the token is then a guard that never trips.
//!
//! * [`FcfsQueue`] — a single-server FIFO queue (one disk).
//! * [`PsServer`] — an egalitarian processor-sharing server (the CPU).
//! * [`TokenRing`] — the communications subnet: per-site outgoing FIFOs
//!   polled round-robin, one message in flight at a time, transfer time
//!   linear in message length.
//! * [`analytic`] — M/M/1, M/M/c, M/G/1-PS and repairman-model formulas.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytic;
mod fcfs;
mod ps;
mod token_ring;

pub use fcfs::FcfsQueue;
pub use ps::{NextCompletion, PsServer, PsToken};
pub use token_ring::TokenRing;
