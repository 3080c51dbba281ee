//! Bitwise serial/sharded equivalence of the windowed parallel executor.
//!
//! The contract of `dqa_core::model::shard` is that the worker count is a
//! pure throughput knob: the conservative windows, the per-site RNG
//! partition, and the `(time, site, log order)` barrier merge make
//! `run_sharded` produce a `RunReport` *byte-identical* to `run` for any
//! `jobs` — every `f64` statistic, every counter, and the kernel event
//! count included. These tests pin that with bitwise `==` on whole
//! reports across policies, fault environments, message-costing models,
//! and worker counts.

use dqa_core::experiment::{run, run_sharded, RunConfig, RunReport};
use dqa_core::model::shard::{lookahead, shardable, ShardError, ShardGate};
use dqa_core::params::{
    AdmissionSpec, ClassSpec, DeadlineSpec, FaultSpec, MessageCosting, MigrationSpec,
    RedundancySpec, ScriptAction, ScriptEntry, SuspicionSpec, SystemParams, SystemParamsBuilder,
};
use dqa_core::policy::PolicyKind;

/// Worker counts to compare against the serial engine. 1 exercises the
/// inline (no-pool) path; 7 exceeds the site count so clamping and
/// uneven round-robin assignment are both on the line.
const JOB_COUNTS: [usize; 4] = [1, 2, 4, 7];

const POLICIES: [PolicyKind; 3] = [PolicyKind::Bnq, PolicyKind::Lert, PolicyKind::Local];

/// The base shardable configuration: costed status broadcasts (§4.4)
/// keep the board imperfect, which is what makes LP windows legal.
fn base() -> SystemParamsBuilder {
    SystemParams::builder()
        .num_sites(5)
        .mpl(4)
        .think_time(100.0)
        .status_period(25.0)
        .status_msg_length(0.8)
}

fn faulty_spec() -> FaultSpec {
    FaultSpec {
        mtbf: 700.0,
        mttr: 50.0,
        msg_loss: 0.02,
        status_loss: 0.0,
        max_retries: 4,
        backoff_base: 10.0,
        ..FaultSpec::default()
    }
}

fn config(params: SystemParams, policy: PolicyKind) -> RunConfig {
    RunConfig::new(params, policy)
        .seed(4_242)
        .windows(400.0, 3_000.0)
}

/// Runs `config` serially and sharded at every worker count and asserts
/// bitwise identity (plus that the run did real work).
fn assert_shard_identical(config: &RunConfig, what: &str) {
    let serial = run(config).expect("serial run");
    assert!(serial.completed > 0, "{what}: degenerate run");
    for jobs in JOB_COUNTS {
        let sharded = run_sharded(config, jobs).expect("sharded run");
        assert_identical(&serial, &sharded, what, jobs);
    }
}

fn assert_identical(serial: &RunReport, sharded: &RunReport, what: &str, jobs: usize) {
    assert!(
        serial == sharded,
        "{what} (jobs={jobs}): sharded report diverged from serial:\n\
         serial:  {serial:?}\n\
         sharded: {sharded:?}"
    );
}

#[test]
fn fault_free_runs_are_bitwise_identical() {
    for policy in POLICIES {
        let params = base().build().expect("valid params");
        assert_shard_identical(&config(params, policy), &format!("{policy:?} fault-free"));
    }
}

#[test]
fn faulty_runs_are_bitwise_identical() {
    // Crashes, repairs, message loss, retry backoff: every fault
    // transition is a barrier-time global event, so faults shard.
    for policy in [PolicyKind::Bnq, PolicyKind::Lert] {
        let params = base()
            .faults(Some(faulty_spec()))
            .build()
            .expect("valid params");
        assert_shard_identical(&config(params, policy), &format!("{policy:?} faulty"));
    }
}

#[test]
fn partitioned_runs_are_bitwise_identical() {
    // A mid-run ring partition drops crossing frames at delivery; the
    // frames still spend their transmission time, so the lookahead bound
    // (and bitwise identity) survives the partition.
    let params = base()
        .faults(Some(FaultSpec {
            msg_loss: 0.01,
            max_retries: 4,
            backoff_base: 10.0,
            partition_at: 900.0,
            partition_for: 400.0,
            partition_groups: 2,
            ..FaultSpec::default()
        }))
        .build()
        .expect("valid params");
    assert_shard_identical(&config(params, PolicyKind::Bnq), "Bnq partitioned");
}

#[test]
fn suspicion_runs_are_bitwise_identical() {
    // The failure detector audits costed broadcasts per observer; its
    // state is LP-local and broadcast delivery is barrier-time.
    let params = base()
        .faults(Some(faulty_spec()))
        .suspicion(Some(SuspicionSpec::default()))
        .build()
        .expect("valid params");
    assert_shard_identical(&config(params, PolicyKind::Lert), "Lert suspicion");
}

#[test]
fn free_status_exchange_runs_are_bitwise_identical() {
    // status_msg_length = 0: snapshots publish through the global
    // StatusExchange event instead of costed frames.
    let params = base().status_msg_length(0.0).build().expect("valid params");
    assert_shard_identical(&config(params, PolicyKind::Bnq), "Bnq free status");
}

#[test]
fn migration_and_update_runs_are_bitwise_identical() {
    // Mid-execution migrations and update propagations put extra frame
    // classes on the ring; both are costed at >= msg_length.
    let params = base()
        .migration(Some(MigrationSpec::default()))
        .update_fraction(0.2)
        .copies(Some(3))
        .build()
        .expect("valid params");
    assert_shard_identical(&config(params, PolicyKind::Bnq), "Bnq migration+updates");
}

#[test]
fn exact_delivery_and_broadcast_ties_are_bitwise_identical() {
    // Costed broadcasts fire on a fixed grid and frames cost fixed
    // amounts, so a ring delivery (a global event) can land on the very
    // f64 instant of another site's `StatusSend` (an LP event). The
    // serial engine runs whichever was scheduled first — here the
    // broadcast, scheduled a whole period earlier — and so must every
    // worker count. This is the perf ledger's `board_updates` shape.
    let params = SystemParams::builder()
        .status_period(40.0)
        .status_msg_length(1.0)
        .copies(Some(3))
        .update_fraction(0.3)
        .build()
        .expect("valid params");
    for policy in [PolicyKind::Bnq, PolicyKind::Lert] {
        let config = RunConfig::new(params.clone(), policy)
            .seed(1)
            .windows(500.0, 3_000.0);
        let serial = run(&config).expect("serial run");
        for jobs in [1, 2] {
            let sharded = run_sharded(&config, jobs).expect("sharded run");
            assert_identical(&serial, &sharded, &format!("{policy:?} tie"), jobs);
        }
    }
}

#[test]
fn scripted_actions_tied_with_broadcasts_run_in_schedule_order() {
    // Site 1 broadcasts at 20, 60, 100, … (period 40 over four sites,
    // every instant exact in binary), and the script crashes and repairs
    // it on two of those instants. The script entries were scheduled at
    // time zero, long before the broadcasts, so the serial engine runs
    // them first: the site is already down for its broadcast at 460 and
    // already back for the one at 900. Running LP events first on an
    // exact tie would flip both.
    let at = |at: f64, action: ScriptAction| ScriptEntry { at, action };
    let params = SystemParams::builder()
        .num_sites(4)
        .mpl(4)
        .think_time(100.0)
        .status_period(40.0)
        .status_msg_length(0.8)
        .faults(Some(FaultSpec {
            max_retries: 4,
            ..FaultSpec::default()
        }))
        .script(vec![
            at(460.0, ScriptAction::SiteDown(1)),
            at(900.0, ScriptAction::SiteUp(1)),
        ])
        .build()
        .expect("valid params");
    assert_shard_identical(&config(params, PolicyKind::Bnq), "Bnq scripted ties");
}

#[test]
fn detailed_costing_runs_are_bitwise_identical() {
    // Per-class message pricing (Tables 2-3): the lookahead drops to the
    // cheapest one-read result frame.
    let params = base()
        .classes(vec![
            ClassSpec::new("io-bound", 0.05, 20.0, 0.5).with_message_shape(4_000.0, 0.2),
            ClassSpec::new("cpu-bound", 1.0, 20.0, 0.5).with_message_shape(2_000.0, 0.1),
        ])
        .message_costing(MessageCosting::Detailed {
            msg_time: 0.000_25,
            page_size: 4_000.0,
        })
        .build()
        .expect("valid params");
    let config = config(params, PolicyKind::Lert);
    let delta = lookahead(&config.params);
    // One-read cpu-bound result frame: 0.1 * 1 * 4000 * 0.00025.
    assert!(delta > 0.0 && delta <= 0.1, "unexpected lookahead {delta}");
    assert_shard_identical(&config, "Lert detailed costing");
}

#[test]
fn open_workload_runs_are_bitwise_identical() {
    let params = base()
        .workload(dqa_core::params::Workload::Open { arrival_rate: 0.01 })
        .build()
        .expect("valid params");
    assert_shard_identical(&config(params, PolicyKind::Bnq), "Bnq open workload");
}

// ----------------------------------------------------------------------
// The shardability gate
// ----------------------------------------------------------------------

#[test]
fn gate_refuses_active_deadlines() {
    let params = base()
        .deadlines(Some(DeadlineSpec {
            mean: 500.0,
            ..DeadlineSpec::default()
        }))
        .build()
        .expect("valid params");
    assert_eq!(shardable(&params), Err(ShardGate::Deadlines));
    let err = run_sharded(&config(params, PolicyKind::Bnq), 2).expect_err("gated");
    assert!(matches!(err, ShardError::Unsupported(ShardGate::Deadlines)));
}

#[test]
fn gate_refuses_active_admission() {
    let params = base()
        .admission(Some(AdmissionSpec {
            mpl_cap: Some(8),
            ..AdmissionSpec::default()
        }))
        .build()
        .expect("valid params");
    assert_eq!(shardable(&params), Err(ShardGate::Admission));
}

#[test]
fn gate_refuses_active_redundancy() {
    // Hedged duplicates are spawned and cancelled off the window
    // barrier, so an *active* redundancy spec is unshardable.
    let params = base()
        .redundancy(Some(RedundancySpec {
            max_level: 2,
            ..RedundancySpec::default()
        }))
        .build()
        .expect("valid params");
    assert_eq!(shardable(&params), Err(ShardGate::Redundancy));
    let err = run_sharded(&config(params, PolicyKind::Bnq), 2).expect_err("gated");
    assert!(matches!(
        err,
        ShardError::Unsupported(ShardGate::Redundancy)
    ));
}

#[test]
fn gate_refuses_perfect_board() {
    let params = SystemParams::builder()
        .num_sites(3)
        .build()
        .expect("valid params");
    assert_eq!(shardable(&params), Err(ShardGate::PerfectBoard));
}

#[test]
fn gate_accepts_inactive_resilience_specs() {
    // Present-but-inactive specs are byte-identical to absent ones
    // (the CRN property), so the gate lets them through.
    let params = base()
        .deadlines(Some(DeadlineSpec::default()))
        .admission(Some(AdmissionSpec::default()))
        .redundancy(Some(RedundancySpec::default()))
        .build()
        .expect("valid params");
    assert_eq!(shardable(&params), Ok(()));
}
