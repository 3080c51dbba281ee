//! The four canonical workloads: which runs make up one pass of each.
//!
//! Shapes are copied from the experiment binaries and tests that already
//! run them (`table09_mpl`, `table11_sites`, `ext_live_service`,
//! `tests/resilience.rs`, `ext_update_workload`). Windows are shortened
//! so that one full pass takes about two seconds on a 2-core x86-64
//! host; `--quick` shortens them about tenfold again.

use dqa_bench::cell_seed;
use dqa_core::experiment::RunConfig;
use dqa_core::params::{
    AdmissionSpec, ArrivalSpec, DeadlineSpec, FaultSpec, MigrationSpec, RedundancySpec,
    SheddingMode, SuspicionSpec, SystemParams, UserSpec, Workload,
};
use dqa_core::policy::PolicyKind;

/// The paper's four allocation policies, in table order.
pub const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Local,
    PolicyKind::Bnq,
    PolicyKind::Bnqrd,
    PolicyKind::Lert,
];

/// Seeds per `(shape, policy)` cell of the closed workloads; runs are
/// ordered shape, then policy, then seed.
pub const SEEDS: u64 = 4;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    PaperGrid,
    Live1m,
    ResilienceAll,
    BoardUpdates,
}

/// Every workload, in the order passes visit them.
pub const ALL: [WorkloadId; 4] = [
    WorkloadId::PaperGrid,
    WorkloadId::Live1m,
    WorkloadId::ResilienceAll,
    WorkloadId::BoardUpdates,
];

impl WorkloadId {
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::PaperGrid => "paper_grid",
            WorkloadId::Live1m => "live_1m",
            WorkloadId::ResilienceAll => "resilience_all",
            WorkloadId::BoardUpdates => "board_updates",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The runs of one pass. `shift` is added to every seed (`--seed`);
    /// `shift == 0` gives the pinned default seeds.
    pub fn configs(self, quick: bool, shift: u64) -> Vec<RunConfig> {
        let seed = |base: u64| base.wrapping_add(shift);
        match self {
            WorkloadId::PaperGrid => {
                let (warmup, measure) = if quick {
                    (500.0, 1_000.0)
                } else {
                    (3_000.0, 8_000.0)
                };
                let shapes = [
                    SystemParams::paper_base(),
                    params(SystemParams::builder().mpl(35)),
                    params(SystemParams::builder().num_sites(10)),
                ];
                let mut runs = Vec::new();
                for (s, shape) in shapes.iter().enumerate() {
                    for policy in POLICIES {
                        for k in 0..SEEDS {
                            runs.push(
                                RunConfig::new(shape.clone(), policy)
                                    .seed(seed(cell_seed(10 * s as u64 + k)))
                                    .windows(warmup, measure),
                            );
                        }
                    }
                }
                runs
            }
            WorkloadId::Live1m => {
                let measure = if quick { 40_000.0 } else { 700_000.0 };
                vec![RunConfig::new(live_params(measure), PolicyKind::Lert)
                    .seed(seed(2_026))
                    .windows(measure * 0.01, measure)]
            }
            WorkloadId::ResilienceAll => {
                let (warmup, measure) = if quick {
                    (500.0, 3_000.0)
                } else {
                    (3_000.0, 24_000.0)
                };
                let shape = resilience_params(warmup, measure);
                closed_grid(&shape, 200, shift, (warmup, measure))
            }
            WorkloadId::BoardUpdates => {
                let windows = if quick {
                    (500.0, 3_000.0)
                } else {
                    (3_000.0, 35_000.0)
                };
                closed_grid(&board_params(), 300, shift, windows)
            }
        }
    }
}

fn params(builder: dqa_core::params::SystemParamsBuilder) -> SystemParams {
    builder.build().expect("workload shapes are valid")
}

/// `POLICIES × SEEDS` runs of one closed shape, seeds from `cell_seed(base..)`.
fn closed_grid(
    shape: &SystemParams,
    base: u64,
    shift: u64,
    (warmup, measure): (f64, f64),
) -> Vec<RunConfig> {
    let mut runs = Vec::new();
    for policy in POLICIES {
        for k in 0..SEEDS {
            runs.push(
                RunConfig::new(shape.clone(), policy)
                    .seed(cell_seed(base + k).wrapping_add(shift))
                    .windows(warmup, measure),
            );
        }
    }
    runs
}

// The active form of each extension layer, shared by the workloads and
// the layer lattice.

/// Site crashes (mtbf 20k, mttr 200) and 0.1% ring message loss.
pub fn faults() -> FaultSpec {
    FaultSpec {
        mtbf: 20_000.0,
        mttr: 200.0,
        msg_loss: 0.001,
        ..FaultSpec::default()
    }
}

/// Deadlines of 50 + Exp(500).
pub fn deadlines() -> DeadlineSpec {
    DeadlineSpec {
        mean: 500.0,
        floor: 50.0,
        ..DeadlineSpec::default()
    }
}

/// An MPL cap of 15 per site, redirecting the overflow.
pub fn admission() -> AdmissionSpec {
    AdmissionSpec {
        mpl_cap: Some(15),
        mode: SheddingMode::Redirect,
        ..AdmissionSpec::default()
    }
}

/// Hedged dispatch to two sites.
pub fn redundancy() -> RedundancySpec {
    RedundancySpec {
        max_level: 2,
        ..RedundancySpec::default()
    }
}

/// A ±30% diurnal curve of the given period and 2x MMPP bursts.
pub fn arrivals(period: f64) -> ArrivalSpec {
    ArrivalSpec {
        diurnal_amplitude: 0.3,
        diurnal_period: period,
        burst_multiplier: 2.0,
        burst_on_mean: 150.0,
        burst_off_mean: 1_200.0,
        ..ArrivalSpec::default()
    }
}

/// One million Zipf users.
pub fn users() -> UserSpec {
    UserSpec {
        total_users: 1_000_000,
        ..UserSpec::default()
    }
}

/// The `ext_live_service` acceptance run over a `measure`-unit horizon:
/// six diurnal periods per window, 0.06 arrivals per unit per site on
/// six sites.
fn live_params(measure: f64) -> SystemParams {
    params(
        SystemParams::builder()
            .num_sites(6)
            .workload(Workload::Open { arrival_rate: 0.06 })
            .arrivals(Some(arrivals(measure / 6.0)))
            .users(Some(users())),
    )
}

/// Paper base with every resilience layer active at once, the shape of
/// `tests/resilience.rs::fully_resilient_hedged_runs_are_deterministic`
/// scaled to the paper's six sites. The two-group partition covers the
/// middle 20% of the measurement window.
fn resilience_params(warmup: f64, measure: f64) -> SystemParams {
    params(
        SystemParams::builder()
            .status_period(50.0)
            .status_msg_length(0.1)
            .suspicion(Some(SuspicionSpec::default()))
            .deadlines(Some(deadlines()))
            .admission(Some(admission()))
            .faults(Some(FaultSpec {
                partition_at: warmup + 0.4 * measure,
                partition_for: 0.2 * measure,
                partition_groups: 2,
                ..faults()
            }))
            .redundancy(Some(redundancy()))
            .migration(Some(MigrationSpec::default())),
    )
}

/// Paper base with costed status broadcasts (§4.4), three copies per
/// relation, and 30% updates (read-one-write-all).
fn board_params() -> SystemParams {
    params(
        SystemParams::builder()
            .status_period(40.0)
            .status_msg_length(1.0)
            .copies(Some(3))
            .update_fraction(0.3),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqa_core::model::shard::{shardable, ShardGate};

    #[test]
    fn every_workload_config_validates() {
        for w in ALL {
            for quick in [false, true] {
                for cfg in w.configs(quick, 0) {
                    assert!(cfg.params.validate().is_ok(), "{} invalid", w.name());
                }
            }
        }
    }

    #[test]
    fn only_board_updates_is_shardable() {
        let gate = |w: WorkloadId| shardable(&w.configs(true, 0)[0].params);
        assert_eq!(gate(WorkloadId::PaperGrid), Err(ShardGate::PerfectBoard));
        assert_eq!(gate(WorkloadId::Live1m), Err(ShardGate::PerfectBoard));
        assert_eq!(gate(WorkloadId::ResilienceAll), Err(ShardGate::Deadlines));
        assert_eq!(gate(WorkloadId::BoardUpdates), Ok(()));
    }

    #[test]
    fn names_round_trip_and_seeds_shift() {
        for w in ALL {
            assert_eq!(WorkloadId::parse(w.name()), Some(w));
            let a = w.configs(true, 0);
            let b = w.configs(true, 7);
            assert_eq!(a.len(), b.len());
            assert_eq!(a[0].seed.wrapping_add(7), b[0].seed);
        }
        assert_eq!(WorkloadId::parse("nope"), None);
    }
}
