//! Property-style integration tests of the simulator: across randomized
//! configurations, the closed-model invariants hold at every checkpoint and
//! the output statistics stay internally consistent. Cases are driven by
//! the deterministic [`dqa_sim::testkit`] runner.

use std::cell::Cell;
use std::rc::Rc;

use dqa_core::model::{DbSystem, Event};
use dqa_core::params::{DeadlineSpec, DiskChoice, FaultSpec, RedundancySpec, SystemParams};
use dqa_core::policy::PolicyKind;
use dqa_sim::testkit::{cases, Gen};
use dqa_sim::{Engine, SimTime};

fn arb_policy(g: &mut Gen) -> PolicyKind {
    match g.usize_in(0..8) {
        0 => PolicyKind::Local,
        1 => PolicyKind::Bnq,
        2 => PolicyKind::Bnqrd,
        3 => PolicyKind::Lert,
        4 => PolicyKind::Random,
        5 => PolicyKind::Threshold(g.u32_in(0..6)),
        6 => PolicyKind::LertNoNet,
        _ => PolicyKind::Wlc,
    }
}

fn arb_disk_choice(g: &mut Gen) -> DiskChoice {
    g.pick(&[
        DiskChoice::Random,
        DiskChoice::RoundRobin,
        DiskChoice::ShortestQueue,
    ])
}

fn arb_params(g: &mut Gen) -> SystemParams {
    let status_period = if g.bool(0.5) {
        0.0
    } else {
        g.f64_in(5.0..200.0)
    };
    let estimate_error = if g.bool(0.5) { 0.0 } else { g.f64_in(0.1..1.0) };
    SystemParams::builder()
        .num_sites(g.usize_in(1..6))
        .num_disks(g.u32_in(1..4))
        .mpl(g.u32_in(1..8))
        .think_time(g.f64_in(20.0..300.0))
        .two_class(
            g.f64_in(0.05..0.95),
            g.f64_in(0.01..0.4),
            g.f64_in(0.5..2.0),
        )
        .msg_length(g.f64_in(0.0..4.0))
        .disk_choice(arb_disk_choice(g))
        .status_period(status_period)
        .estimate_error(estimate_error)
        .build()
        .expect("generated parameters are valid")
}

/// The closed-model bookkeeping (load table vs query phases vs station
/// residents) holds at arbitrary checkpoints under arbitrary
/// configurations and policies.
#[test]
fn invariants_hold_under_random_configurations() {
    cases(48, 0x51_01, |g| {
        let params = arb_params(g);
        let policy = arb_policy(g);
        let seed = g.u64_in(0..1_000);
        let system = DbSystem::new(params, policy, seed).expect("valid");
        let mut engine = Engine::new(system);
        DbSystem::prime(&mut engine);
        for k in 1..=8 {
            engine.run_until(SimTime::new(f64::from(k) * 250.0));
            engine.model().check_invariants();
        }
    });
}

/// Queries keep completing (no deadlock / lost events) and the recorded
/// statistics are internally consistent.
#[test]
fn statistics_stay_consistent() {
    cases(48, 0x51_02, |g| {
        let params = arb_params(g);
        let policy = arb_policy(g);
        let seed = g.u64_in(0..1_000);
        let expected_classes = params.classes.len();
        let system = DbSystem::new(params, policy, seed).expect("valid");
        let mut engine = Engine::new(system);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(3_000.0));
        let now = engine.now();
        let m = engine.model().metrics();
        assert!(
            m.completed() > 0,
            "case {}: no query completed in 3000 units",
            g.case()
        );
        assert!(m.mean_waiting() >= 0.0);
        assert!(m.mean_response() >= m.mean_waiting());
        let class_sum: u64 = (0..expected_classes)
            .map(|c| m.class(c).waiting.count())
            .sum();
        assert_eq!(class_sum, m.completed());
        for u in [
            engine.model().cpu_utilization(now),
            engine.model().disk_utilization(now),
            engine.model().subnet_utilization(now),
        ] {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&u),
                "case {}: utilization {} out of range",
                g.case(),
                u
            );
        }
        assert!(m.transfer_fraction() >= 0.0 && m.transfer_fraction() <= 1.0);
    });
}

/// Bit-identical determinism: the same (params, policy, seed) triple yields
/// the same event count and statistics.
#[test]
fn runs_are_deterministic() {
    cases(24, 0x51_03, |g| {
        let params = arb_params(g);
        let policy = arb_policy(g);
        let seed = g.u64_in(0..100);
        let run_once = || {
            let system = DbSystem::new(params.clone(), policy, seed).expect("valid");
            let mut engine = Engine::new(system);
            DbSystem::prime(&mut engine);
            engine.run_until(SimTime::new(1_500.0));
            (
                engine.steps(),
                engine.model().metrics().completed(),
                engine.model().metrics().mean_waiting(),
            )
        };
        assert_eq!(run_once(), run_once(), "case {}", g.case());
    });
}

#[test]
fn local_policy_never_transfers_regardless_of_configuration() {
    for seed in 0..5 {
        let params = SystemParams::builder()
            .num_sites(4)
            .mpl(6)
            .think_time(60.0)
            .build()
            .unwrap();
        let system = DbSystem::new(params, PolicyKind::Local, seed).unwrap();
        let mut engine = Engine::new(system);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(2_000.0));
        assert_eq!(engine.model().metrics().transfers(), 0);
        assert_eq!(engine.model().ring().messages_sent(), 0);
    }
}

#[test]
fn zero_msg_length_still_delivers_queries() {
    // Degenerate but legal: transfers are free and instantaneous on the
    // ring's clock (duration 0), yet ordering and delivery must hold.
    let params = SystemParams::builder().msg_length(0.0).build().unwrap();
    let system = DbSystem::new(params, PolicyKind::Bnq, 5).unwrap();
    let mut engine = Engine::new(system);
    DbSystem::prime(&mut engine);
    engine.run_until(SimTime::new(3_000.0));
    let m = engine.model().metrics();
    assert!(m.completed() > 100);
    assert!(m.transfers() > 0);
    engine.model().check_invariants();
}

/// Runs `params` by hand (no statistics reset) to `until` with an
/// observer counting `CpuDone` deliveries, and checks that each one was
/// a real departure: the count equals the CPUs' completions. Returns the
/// engine so the caller can check that its shape's paths fired.
fn cpu_done_matches_completions(
    params: SystemParams,
    policy: PolicyKind,
    seed: u64,
    until: f64,
) -> Engine<DbSystem> {
    let delivered = Rc::new(Cell::new(0u64));
    let counter = Rc::clone(&delivered);
    let system = DbSystem::new(params, policy, seed).expect("valid");
    let mut engine = Engine::new(system);
    engine.set_observer(move |_, event| {
        if matches!(event, Event::CpuDone { .. }) {
            counter.set(counter.get() + 1);
        }
    });
    DbSystem::prime(&mut engine);
    engine.run_until(SimTime::new(until));
    let completions: u64 = engine.model().sites().map(|s| s.cpu.completions()).sum();
    assert!(completions > 0, "no CPU departure at all");
    assert_eq!(
        delivered.get(),
        completions,
        "{policy:?}, seed {seed}: CpuDone deliveries that were no departure"
    );
    engine
}

/// Every `CpuDone` the kernel delivers is a real departure: each CPU
/// state change replaces its site's pending announcement instead of
/// leaving a superseded one queued. The shapes reach every re-announcing
/// path: arrivals and departures (paper base), CPU-phase evictions by
/// deadline expiry and hedge reaps, and crashes that drain the CPU.
#[test]
fn every_cpu_done_delivered_is_a_departure() {
    for policy in [PolicyKind::Lert, PolicyKind::Bnq] {
        cpu_done_matches_completions(SystemParams::paper_base(), policy, 3, 4_000.0);
    }

    let evicting = SystemParams::builder()
        .num_sites(5)
        .mpl(6)
        .think_time(70.0)
        .deadlines(Some(DeadlineSpec {
            mean: 150.0,
            floor: 20.0,
            max_reallocations: 1,
            ..DeadlineSpec::default()
        }))
        .redundancy(Some(RedundancySpec {
            max_level: 3,
            hedge_prob: 0.6,
            load_threshold: 0.0,
            full_threshold: 1.0,
        }))
        .build()
        .expect("valid params");
    let engine = cpu_done_matches_completions(evicting, PolicyKind::Lert, 17, 4_000.0);
    let m = engine.model().metrics();
    assert!(m.deadline_timeouts() > 0, "no deadline expired");
    assert!(m.hedge_cancelled() > 0, "no losing attempt was reaped");

    let crashing = SystemParams::builder()
        .num_sites(4)
        .mpl(6)
        .think_time(80.0)
        .faults(Some(FaultSpec {
            mtbf: 400.0,
            mttr: 100.0,
            ..FaultSpec::default()
        }))
        .build()
        .expect("valid params");
    let engine = cpu_done_matches_completions(crashing, PolicyKind::Bnq, 5, 4_000.0);
    assert!(
        engine.model().metrics().queries_retried() > 0,
        "no crash caught a resident query"
    );
}
