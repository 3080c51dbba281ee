//! # dqa-mva — exact Mean Value Analysis and the optimal-allocation study
//!
//! Section 3 of the paper quantifies the *potential* of demand-aware query
//! allocation analytically: for a four-site system with two query classes it
//! compares, for a single arriving query, the expected per-cycle waiting
//! time under the naive "balance the number of queries" (BNQ) choice against
//! the best possible choice, using the **Mean Value algorithm** of Reiser &
//! Lavenberg for closed multi-chain queueing networks.
//!
//! This crate contains:
//!
//! * [`Network`] / [`solve`] — an exact multi-class MVA solver for closed
//!   product-form networks of queueing (PS / exponential-FCFS) and delay
//!   stations, recursing over the full lattice of population vectors.
//! * [`allocation`] — the paper's study: DB-site networks (one PS CPU plus
//!   `num_disks` FCFS disks), load-distribution matrices, the BNQ and
//!   optimal allocation rules, and the Waiting / Fairness Improvement
//!   Factors (WIF, FIF) reported in Tables 5 and 6.
//!
//! # Example
//!
//! A two-class network: one PS CPU shared by an I/O-bound and a CPU-bound
//! chain, plus one FCFS disk.
//!
//! ```
//! use dqa_mva::{Network, StationKind, solve};
//!
//! let net = Network::builder(2)
//!     .station("cpu", StationKind::Queueing, [0.05, 1.0])
//!     .station("disk", StationKind::Queueing, [0.5, 0.5])
//!     .build()?;
//! let sol = solve(&net, &[2, 1]);
//! // Throughputs and residence times are exact for this population.
//! assert!(sol.throughput(0) > 0.0);
//! assert!(sol.residence(1, 1) >= 1.0); // CPU-bound class spends >= demand at CPU
//! # Ok::<(), dqa_mva::NetworkError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod allocation;
mod approx;
pub mod bounds;
mod network;
mod population;
mod solver;

pub use approx::approx_solve;
pub use network::{Network, NetworkBuilder, NetworkError, StationKind};
pub use population::PopulationLattice;
pub use solver::{solve, Solution, SolvedLattice};
