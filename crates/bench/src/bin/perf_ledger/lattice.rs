//! The layer lattice: what each of the eight extension specs costs per
//! event when absent, present but inert, and active alone.
//!
//! Base: an open workload at 0.05 arrivals per unit per site on the
//! paper's six sites, costed status broadcasts (period 50, length 0.1),
//! LERT, one seed, windows 3k/60k. "Absent" sets every spec to `None`;
//! "inert" sets the six specs that have an inert form (fault, deadline,
//! admission, redundancy, arrival, user) to `Some(default)`, which must
//! reproduce the absent run's report exactly. Absent and inert passes
//! alternate so a noisy stretch of the host hits both.

use std::time::Instant;

use dqa_bench::cell_seed;
use dqa_core::experiment::{run, RunConfig, RunReport};
use dqa_core::params::{
    AdmissionSpec, ArrivalSpec, DeadlineSpec, FaultSpec, MigrationSpec, RedundancySpec,
    SuspicionSpec, SystemParams, UserSpec, Workload,
};
use dqa_core::policy::PolicyKind;

use crate::json::Metric;
use crate::measure::{median, RunCount};
use crate::workloads;

/// Absent/inert pass pairs.
const PAIRS: usize = 3;

/// The spec names, in the order of [`active_alone`].
pub const SPECS: [&str; 8] = [
    "migration",
    "fault",
    "deadline",
    "suspicion",
    "admission",
    "redundancy",
    "arrival",
    "user",
];

fn base(quick: bool, shift: u64) -> RunConfig {
    let params = SystemParams::builder()
        .workload(Workload::Open { arrival_rate: 0.05 })
        .status_period(50.0)
        .status_msg_length(0.1)
        .build()
        .expect("lattice base is valid");
    RunConfig::new(params, PolicyKind::Lert)
        .seed(cell_seed(400).wrapping_add(shift))
        .windows(3_000.0, if quick { 6_000.0 } else { 60_000.0 })
}

/// The base with the six inertable specs present at their defaults.
fn inert(quick: bool, shift: u64) -> RunConfig {
    let mut cfg = base(quick, shift);
    let p = &mut cfg.params;
    p.faults = Some(FaultSpec::default());
    p.deadlines = Some(DeadlineSpec::default());
    p.admission = Some(AdmissionSpec::default());
    p.redundancy = Some(RedundancySpec::default());
    p.arrivals = Some(ArrivalSpec::default());
    p.users = Some(UserSpec::default());
    cfg
}

/// The base with spec `SPECS[i]` active and every other spec absent.
fn active_alone(i: usize, quick: bool, shift: u64) -> RunConfig {
    let mut cfg = base(quick, shift);
    let p = &mut cfg.params;
    match SPECS[i] {
        "migration" => p.migration = Some(MigrationSpec::default()),
        "fault" => p.faults = Some(workloads::faults()),
        "deadline" => p.deadlines = Some(workloads::deadlines()),
        "suspicion" => p.suspicion = Some(SuspicionSpec::default()),
        "admission" => p.admission = Some(workloads::admission()),
        "redundancy" => p.redundancy = Some(workloads::redundancy()),
        "arrival" => p.arrivals = Some(workloads::arrivals(cfg.measure / 6.0)),
        "user" => p.users = Some(workloads::users()),
        other => unreachable!("unknown spec {other}"),
    }
    cfg
}

/// Wall ns per event of one run, with its report.
fn timed(cfg: &RunConfig) -> Result<(f64, RunReport), String> {
    let started = Instant::now();
    let report = run(cfg).map_err(|e| e.to_string())?;
    let wall = started.elapsed().as_nanos() as f64;
    Ok((wall / report.events as f64, report))
}

/// The lattice's metrics. An inert report that differs from the absent
/// one counts as a failed run.
pub fn measure(quick: bool, shift: u64, runs: &mut RunCount) -> Vec<Metric> {
    let (absent_cfg, inert_cfg) = (base(quick, shift), inert(quick, shift));
    let (mut absent, mut inert) = (Vec::new(), Vec::new());
    let mut reference: Option<RunReport> = None;
    for _ in 0..PAIRS {
        if let Some((ns, report)) = runs.attempt(1, || timed(&absent_cfg)) {
            absent.push(ns);
            reference.get_or_insert(report);
        }
        if let Some((ns, report)) = runs.attempt(1, || timed(&inert_cfg)) {
            inert.push(ns);
            if reference.as_ref() != Some(&report) {
                runs.fail(1, "lattice: the inert specs changed the report");
            }
        }
    }
    let mut out = Vec::new();
    if !absent.is_empty() && !inert.is_empty() {
        let (a, i) = (median(&absent), median(&inert));
        out.push(Metric::new("lattice.absent_ns_per_event", "ns", a));
        out.push(Metric::new(
            "lattice.inert_tax_pct",
            "%",
            (i / a - 1.0) * 100.0,
        ));
    }
    for (k, name) in SPECS.iter().enumerate() {
        if let Some((ns, _)) = runs.attempt(1, || timed(&active_alone(k, quick, shift))) {
            out.push(Metric::new(
                format!("lattice.{name}.active_ns_per_event"),
                "ns",
                ns,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lattice_config_validates_and_activates_its_spec() {
        for quick in [false, true] {
            assert!(base(quick, 0).params.validate().is_ok());
            let inert = inert(quick, 0).params;
            assert!(inert.validate().is_ok());
            assert!(!inert.faults.unwrap().is_active());
            assert!(!inert.deadlines.unwrap().is_active());
            assert!(!inert.admission.unwrap().is_active());
            assert!(!inert.redundancy.unwrap().is_active());
            assert!(!inert.arrivals.unwrap().is_active());
            assert!(!inert.users.unwrap().is_active());
            for (k, name) in SPECS.iter().enumerate() {
                let p = active_alone(k, quick, 0).params;
                assert!(p.validate().is_ok(), "{name} invalid");
                let active = match *name {
                    "migration" => p.migration.is_some(),
                    "fault" => p.faults.is_some_and(|s| s.is_active()),
                    "deadline" => p.deadlines.is_some_and(|s| s.is_active()),
                    "suspicion" => p.suspicion.is_some(),
                    "admission" => p.admission.is_some_and(|s| s.is_active()),
                    "redundancy" => p.redundancy.is_some_and(|s| s.is_active()),
                    "arrival" => p.arrivals.is_some_and(|s| s.is_active()),
                    _ => p.users.is_some_and(|s| s.is_active()),
                };
                assert!(active, "{name} is not active");
            }
        }
    }
}
