//! # dqa-bench — the experiment harness regenerating every paper table
//!
//! One binary per table of Carey/Livny/Lu 1984, plus ablation binaries for
//! the design choices called out in `DESIGN.md`.
//!
//! | binary | regenerates |
//! |---|---|
//! | `table05_wif` | Table 5 — Waiting Improvement Factor (analytic, MVA) |
//! | `table06_fif` | Table 6 — Fairness Improvement Factor (analytic, MVA) |
//! | `table08_think_time` | Table 8 — W̄ vs think time |
//! | `table09_mpl` | Table 9 — W̄ vs terminals per site |
//! | `table10_capacity` | Table 10 — max mpl vs response-time target |
//! | `table11_sites` | Table 11 — W̄ and subnet utilization vs #sites |
//! | `table12_fairness` | Table 12 — W̄ and fairness vs class mix |
//! | `ablation_msg_length` | §5.2 msg_length = 2 experiment + sweep |
//! | `ablation_stale_info` | status-exchange period sweep (§4.4 future work) |
//! | `ablation_estimate_error` | optimizer-estimate noise sweep |
//! | `ablation_lert_net_term` | LERT without its network term |
//! | `ablation_disk_choice` | disk-selection discipline comparison |
//! | `ext_status_exchange` | §4.4 costed status broadcasts on the ring |
//! | `ext_fault_tolerance` | policy degradation under site crashes + msg loss |
//! | `fit_l_matrices` | recovers the scan-garbled Table 5/6 load matrices |
//! | `perf_mva` | analytic fast path vs naive MVA (bitwise gate + timing) |
//! | `verify_claims` | one-command PASS/FAIL check of every headline claim |
//!
//! The simulator's own costs, end to end and layer by layer, are priced by
//! `perf_ledger`, a package of its own in `src/bin/perf_ledger/`.
//!
//! Every binary prints the paper's reference values next to the measured
//! ones. Set `DQA_QUICK=1` to cut replication counts and windows (used by
//! the integration tests); absolute numbers then get noisier but trends
//! survive.

#![forbid(unsafe_code)]

pub mod paper;

use dqa_core::experiment::{run_replicated, run_replicated_jobs, Replicated, RunConfig};
use dqa_core::parallel;
use dqa_core::params::{ParamsError, SystemParams};
use dqa_core::policy::PolicyKind;

/// Replication/window settings shared by the table binaries.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Independent replications per configuration.
    pub replications: u32,
    /// Warmup window (simulated time units).
    pub warmup: f64,
    /// Measurement window (simulated time units).
    pub measure: f64,
}

impl Effort {
    /// The defaults used for the recorded experiments: 5 replications of
    /// 30 000 measured time units each (~45 000 completed queries per
    /// configuration at base parameters).
    #[must_use]
    pub fn standard() -> Self {
        Effort {
            replications: 5,
            warmup: 3_000.0,
            measure: 30_000.0,
        }
    }

    /// A fast mode for smoke tests.
    #[must_use]
    pub fn quick() -> Self {
        Effort {
            replications: 2,
            warmup: 1_000.0,
            measure: 6_000.0,
        }
    }

    /// [`Effort::standard`], or [`Effort::quick`] when `DQA_QUICK=1` is
    /// set in the environment.
    #[must_use]
    pub fn from_env() -> Self {
        if std::env::var("DQA_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Effort::quick()
        } else {
            Effort::standard()
        }
    }

    /// Builds a [`RunConfig`] with these windows.
    #[must_use]
    pub fn config(&self, params: SystemParams, policy: PolicyKind) -> RunConfig {
        RunConfig::new(params, policy).windows(self.warmup, self.measure)
    }

    /// Runs the replications for one `(params, policy)` cell.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] on invalid parameters.
    pub fn run(
        &self,
        params: &SystemParams,
        policy: PolicyKind,
        seed: u64,
    ) -> Result<Replicated, ParamsError> {
        run_replicated(
            &self.config(params.clone(), policy).seed(seed),
            self.replications,
        )
    }
}

/// One `(params, policy, seed)` cell of a benchmark grid.
pub type Cell = (SystemParams, PolicyKind, u64);

/// Runs a whole benchmark grid through the worker pool, returning one
/// [`Replicated`] per cell **in cell order**.
///
/// Parallelism is applied across cells (each cell's replications run
/// serially inside its worker) so the pool is never nested; because every
/// cell owns its seed and the reduce preserves order, the output is
/// byte-identical to looping over [`Effort::run`] serially, for any
/// `--jobs`/`DQA_JOBS` setting.
///
/// # Errors
///
/// Returns the first (lowest-indexed) [`ParamsError`] of the grid.
pub fn run_grid(effort: &Effort, cells: Vec<Cell>) -> Result<Vec<Replicated>, ParamsError> {
    let effort = *effort;
    parallel::par_try_map(parallel::jobs(), cells, move |_, (params, policy, seed)| {
        run_replicated_jobs(
            &effort.config(params, policy).seed(seed),
            effort.replications,
            1,
        )
    })
}

/// Seed base used by all recorded experiments (per-cell seeds derive from
/// it so cells are independent but reproducible).
pub const SEED: u64 = 20_240_901;

/// Derives a per-cell seed from the experiment seed and a cell index.
#[must_use]
pub fn cell_seed(cell: u64) -> u64 {
    SEED.wrapping_add(cell.wrapping_mul(1_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_effort_is_heavier_than_quick() {
        let s = Effort::standard();
        let q = Effort::quick();
        assert!(s.replications > q.replications);
        assert!(s.measure > q.measure);
    }

    #[test]
    fn cell_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..100).map(cell_seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn run_grid_matches_a_serial_loop() {
        let effort = Effort {
            replications: 2,
            warmup: 200.0,
            measure: 1_000.0,
        };
        let params = SystemParams::builder()
            .num_sites(2)
            .mpl(4)
            .think_time(100.0)
            .build()
            .unwrap();
        let cells: Vec<Cell> = [PolicyKind::Local, PolicyKind::Bnq, PolicyKind::Lert]
            .iter()
            .enumerate()
            .map(|(i, &p)| (params.clone(), p, cell_seed(i as u64)))
            .collect();
        let grid = run_grid(&effort, cells.clone()).unwrap();
        assert_eq!(grid.len(), cells.len());
        for ((params, policy, seed), got) in cells.into_iter().zip(&grid) {
            let serial = effort.run(&params, policy, seed).unwrap();
            assert!(serial == *got, "grid cell diverged from serial run");
        }
    }

    #[test]
    fn run_grid_reports_invalid_cells() {
        // Parameters are re-validated at run time, so a cell corrupted
        // after building surfaces as the grid's error.
        let mut params = SystemParams::builder().num_sites(2).build().unwrap();
        params.num_sites = 0;
        let cells = vec![(params, PolicyKind::Local, 1u64)];
        assert!(run_grid(&Effort::quick(), cells).is_err());
    }

    #[test]
    fn effort_runs_a_cell() {
        let params = SystemParams::builder()
            .num_sites(2)
            .mpl(4)
            .think_time(100.0)
            .build()
            .unwrap();
        let rep = Effort {
            replications: 2,
            warmup: 200.0,
            measure: 1_000.0,
        }
        .run(&params, PolicyKind::Bnq, 1)
        .unwrap();
        assert_eq!(rep.reports.len(), 2);
        assert!(rep.mean_waiting() >= 0.0);
    }
}
