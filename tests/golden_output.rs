//! Golden-output pins: short runs whose whole `RunReport` is fixed.
//!
//! The other determinism tests compare two runs of the *same* build, so a
//! refactor that changes behavior the same way in both runs passes them.
//! These tests compare against values recorded once from a known build
//! instead. Each shape is pinned twice:
//!
//! * the outputs: FNV-1a 64 over the report's `Debug` text with `events`
//!   zeroed (the perf ledger's fingerprint rule);
//! * the cost: the exact kernel event count, `events`.
//!
//! The two are pinned apart because they change for different reasons.
//! The event count moves whenever the kernel stops dispatching an event
//! that does nothing (a superseded CPU announcement, say) while every
//! output stays byte-identical; the outputs move only when the
//! simulation itself changes. Each shape drives a lifecycle path the perf
//! ledger's workloads do not reach (or reach only rarely), and asserts
//! that the path actually fired, so a pin can never silently cover
//! nothing.
//!
//! A pin that breaks means the simulator's output (or its event count)
//! changed. Do not regenerate the constants to make it pass unless the
//! change is the point of the change; an event-count change must leave
//! the output fingerprint alone.

use dqa_core::experiment::{run, RunConfig, RunReport};
use dqa_core::params::{
    AdmissionSpec, DeadlineSpec, FaultSpec, MigrationSpec, RedundancySpec, ScriptAction,
    ScriptEntry, SheddingMode, SuspicionSpec, SystemParams, SystemParamsBuilder, Workload,
};
use dqa_core::policy::PolicyKind;

/// FNV-1a 64 over the `Debug` text of `report` with `events` zeroed.
fn fingerprint(report: &RunReport) -> u64 {
    let outputs = RunReport {
        events: 0,
        ..report.clone()
    };
    format!("{outputs:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Runs `params` under `policy` and checks the report's output
/// fingerprint and its kernel event count.
fn pinned(
    params: SystemParams,
    policy: PolicyKind,
    seed: u64,
    (expected, events): (u64, u64),
) -> RunReport {
    let config = RunConfig::new(params, policy)
        .seed(seed)
        .windows(500.0, 4_000.0);
    let report = run(&config).expect("valid shape");
    let got = fingerprint(&report);
    assert_eq!(
        got, expected,
        "report fingerprint changed: got {got:#018x}, pinned {expected:#018x}\n{report:?}"
    );
    assert_eq!(report.events, events, "kernel event count changed");
    report
}

/// Four sites under a heavy closed load, so admission caps bite.
fn hot() -> SystemParamsBuilder {
    SystemParams::builder().num_sites(4).mpl(8).think_time(60.0)
}

#[test]
fn admission_drop_is_pinned() {
    let params = hot()
        .admission(Some(AdmissionSpec {
            mpl_cap: Some(5),
            mode: SheddingMode::Drop,
            ..AdmissionSpec::default()
        }))
        .build()
        .expect("valid params");
    let r = pinned(params, PolicyKind::Bnq, 12, (0xb589_b9ef_feed_07a7, 52_687));
    assert!(r.admission_dropped > 0, "no query was dropped");
}

#[test]
fn admission_reject_retry_is_pinned() {
    // Two retries, so some rejected queries run out and are dropped.
    let params = hot()
        .admission(Some(AdmissionSpec {
            mpl_cap: Some(5),
            mode: SheddingMode::RejectRetry,
            max_retries: 2,
            ..AdmissionSpec::default()
        }))
        .build()
        .expect("valid params");
    let r = pinned(
        params,
        PolicyKind::Lert,
        13,
        (0x5e0a_7165_958f_5d6b, 51_414),
    );
    assert!(r.admission_rejected > 0, "no query was rejected");
    assert!(
        r.admission_dropped > 0,
        "no rejected query ran out of retries"
    );
}

#[test]
fn fault_script_is_pinned() {
    // A scripted crash and repair of site 1, then a two-group partition,
    // with one retry per query so some retries run out.
    let at = |at: f64, action: ScriptAction| ScriptEntry { at, action };
    let params = SystemParams::builder()
        .num_sites(4)
        .mpl(6)
        .think_time(80.0)
        .faults(Some(FaultSpec {
            max_retries: 1,
            partition_groups: 2,
            ..FaultSpec::default()
        }))
        .script(vec![
            at(800.0, ScriptAction::SiteDown(1)),
            at(1_400.0, ScriptAction::SiteUp(1)),
            at(2_000.0, ScriptAction::PartitionStart),
            at(2_900.0, ScriptAction::PartitionHeal),
            at(3_300.0, ScriptAction::SiteDown(3)),
            at(3_900.0, ScriptAction::SiteUp(3)),
        ])
        .build()
        .expect("valid params");
    let r = pinned(params, PolicyKind::Bnq, 14, (0x9be7_a3a0_3d2d_01a9, 33_716));
    assert!(r.queries_retried > 0, "no query retried");
    assert!(r.queries_lost > 0, "no query ran out of retries");
    assert!(r.partition_drops > 0, "the partition dropped no frame");
}

#[test]
fn open_arrivals_at_crashed_sites_are_pinned() {
    // Arrivals at a crashed site bounce and count as lost. The retry
    // budget is large, so retry exhaustion does not also count here.
    let params = SystemParams::builder()
        .num_sites(4)
        .workload(Workload::Open { arrival_rate: 0.05 })
        .faults(Some(FaultSpec {
            mtbf: 1_500.0,
            mttr: 300.0,
            max_retries: 30,
            ..FaultSpec::default()
        }))
        .build()
        .expect("valid params");
    let r = pinned(
        params,
        PolicyKind::Lert,
        15,
        (0x492d_0b2d_11ab_6aaa, 34_263),
    );
    assert!(r.queries_lost > 0, "no arrival bounced off a crashed site");
    assert!(r.queries_retried > 0, "no crash victim retried");
}

#[test]
fn updates_with_copies_under_faults_are_pinned() {
    // Updates propagate to the other holders while sites crash and the
    // ring drops frames; one retry per query, so results and dispatches
    // both run out of retries at delivery time.
    let params = SystemParams::builder()
        .num_sites(4)
        .mpl(6)
        .think_time(80.0)
        .status_period(30.0)
        .status_msg_length(0.5)
        .copies(Some(2))
        .update_fraction(0.3)
        .faults(Some(FaultSpec {
            mtbf: 2_000.0,
            mttr: 150.0,
            msg_loss: 0.03,
            max_retries: 1,
            ..FaultSpec::default()
        }))
        .build()
        .expect("valid params");
    let r = pinned(
        params,
        PolicyKind::Bnqrd,
        16,
        (0x828a_4092_9dd3_c66b, 39_807),
    );
    assert!(r.propagations > 0, "no update propagated");
    assert!(r.msgs_lost > 0, "no frame was lost");
    assert!(r.queries_retried > 0, "no query retried");
    assert!(r.queries_lost > 0, "no query ran out of retries");
}

#[test]
fn every_layer_at_once_is_pinned() {
    // Deadlines, admission redirects, faults with a partition, suspicion,
    // hedging to up to three sites, migration, and updates with copies.
    let params = SystemParams::builder()
        .num_sites(5)
        .mpl(6)
        .think_time(70.0)
        .status_period(40.0)
        .status_msg_length(0.2)
        .copies(Some(3))
        .update_fraction(0.15)
        .suspicion(Some(SuspicionSpec::default()))
        .deadlines(Some(DeadlineSpec {
            mean: 150.0,
            floor: 20.0,
            max_reallocations: 1,
            ..DeadlineSpec::default()
        }))
        .admission(Some(AdmissionSpec {
            mpl_cap: Some(6),
            mode: SheddingMode::Redirect,
            ..AdmissionSpec::default()
        }))
        .faults(Some(FaultSpec {
            mtbf: 2_500.0,
            mttr: 150.0,
            msg_loss: 0.01,
            max_retries: 2,
            partition_at: 2_000.0,
            partition_for: 800.0,
            partition_groups: 2,
            ..FaultSpec::default()
        }))
        .redundancy(Some(RedundancySpec {
            max_level: 3,
            hedge_prob: 0.6,
            load_threshold: 0.0,
            full_threshold: 1.0,
        }))
        .migration(Some(MigrationSpec::default()))
        .build()
        .expect("valid params");
    for (policy, seed, expected) in [
        (PolicyKind::Lert, 17, (0x4e18_b631_82f6_7f41, 60_847)),
        (PolicyKind::Bnq, 18, (0xcf3b_b259_4cdf_b3ad, 61_981)),
    ] {
        let r = pinned(params.clone(), policy, seed, expected);
        assert!(r.deadline_reallocations > 0, "no deadline reallocation");
        assert!(r.deadline_abandoned > 0, "no deadline abandonment");
        assert!(r.admission_redirected > 0, "no admission redirect");
        assert!(r.partition_drops > 0, "the partition dropped no frame");
        assert!(r.hedge_wins > 0, "no duplicate won a race");
        assert!(r.hedge_cancelled > 0, "no losing attempt was reaped");
        assert!(r.migrations > 0, "no query migrated");
        assert!(r.propagations > 0, "no update propagated");
        assert!(r.queries_lost > 0, "no query ran out of retries");
    }
}
