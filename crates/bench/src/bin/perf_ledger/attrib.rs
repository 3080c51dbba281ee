//! Attribution: how much of the measured ns/event the microcosts explain.
//!
//! The count model charges each traced event the microcosts of the layer
//! operations it performs, and nothing for the handler logic around
//! them:
//!
//! * every event: one queue hold (a pop plus, on average, one push) at
//!   the run's pending-event depth — `num_sites × mpl` for a closed run
//!   (each terminal has exactly one event pending), 64 for an open one;
//! * `Submit`: one `SelectSite` for the run's policy and site count, one
//!   query-table insert and remove, one `record_completion` (every
//!   submitted query completes once), [`DRAWS_PER_SUBMIT`] RNG draws
//!   (think time or arrival gap, class, reads, relation) and, with a user
//!   population, one Zipf pick and one arena `begin_query` at the run's
//!   peak active-user count;
//! * `CpuDone`: one PS arrival and completion at the run's mean CPU
//!   residency, charged only for the share of `CpuDone` events that
//!   complete a burst (the rest are stale and cost a pop);
//! * `DiskDone`: one FCFS arrival and completion plus
//!   [`DRAWS_PER_READ`] RNG draws (disk time, CPU burst, disk choice);
//! * `NetDone`: one ring send and delivery at the run's site count;
//! * `StatusSend`: one board row publish.
//!
//! Microcosts measured at a few sizes are interpolated linearly in
//! `log(size)` and clamped at the ends. `attrib.unexplained_frac` is
//! `1 − explained / measured`: the share of the engine's time spent
//! outside the priced operations (event dispatch, handler bookkeeping,
//! load accounting, cache misses the warm microcosts do not see).

use dqa_core::experiment::RunConfig;
use dqa_core::params::Workload;

use crate::json::Metric;
use crate::trace::{TracedRun, CPU_DONE, DISK_DONE, NET_DONE, STATUS_SEND, SUBMIT};

/// RNG draws charged to each `Submit`.
const DRAWS_PER_SUBMIT: f64 = 4.0;
/// RNG draws charged to each page read (`DiskDone`).
const DRAWS_PER_READ: f64 = 3.0;

/// Linear interpolation in `log(x)` through `points` (sorted by x),
/// clamped to the end values.
fn interp(x: f64, points: &[(f64, f64)]) -> f64 {
    let (first, last) = (points[0], points[points.len() - 1]);
    if x <= first.0 {
        return first.1;
    }
    if x >= last.0 {
        return last.1;
    }
    let i = points
        .iter()
        .position(|p| p.0 >= x)
        .expect("x below the last point");
    let ((x0, y0), (x1, y1)) = (points[i - 1], points[i]);
    let t = (x.ln() - x0.ln()) / (x1.ln() - x0.ln());
    y0 + (y1 - y0) * t
}

/// Explained ns per event over a traced pass, or `None` if a microcost
/// the model needs is missing.
pub fn explained_ns_per_event(
    micro: &[Metric],
    configs: &[RunConfig],
    runs: &[TracedRun],
) -> Option<f64> {
    let cost = |name: &str| micro.iter().find(|m| m.name == name).map(|m| m.value);
    let curve = |names: &[(f64, String)]| -> Option<Vec<(f64, f64)>> {
        names
            .iter()
            .map(|(x, n)| cost(n).map(|c| (*x, c)))
            .collect()
    };
    let hold = curve(&[
        (64.0, "queue.hold_ns.d64".into()),
        (1_024.0, "queue.hold_ns.d1024".into()),
        (16_384.0, "queue.hold_ns.d16384".into()),
    ])?;
    let ps = curve(&[
        (1.0, "ps.arrive_complete_ns.r1".into()),
        (8.0, "ps.arrive_complete_ns.r8".into()),
        (32.0, "ps.arrive_complete_ns.r32".into()),
    ])?;
    let ring = curve(&[
        (6.0, "ring.send_deliver_ns.s6".into()),
        (10.0, "ring.send_deliver_ns.s10".into()),
    ])?;
    let arena = curve(&[
        (1_000.0, "users.begin_query_ns.a1k".into()),
        (170_000.0, "users.begin_query_ns.a170k".into()),
    ])?;
    let fcfs = cost("fcfs.arrive_complete_ns")?;
    let publish = cost("load.publish_ns.s6")?;
    let draw = cost("rng.exponential_ns")?;
    let per_query = cost("query_table.insert_remove_ns")? + cost("metrics.record_completion_ns")?;
    let zipf = cost("users.zipf_pick_ns")?;

    let (mut explained, mut events) = (0.0, 0u64);
    for (cfg, run) in configs.iter().zip(runs) {
        let p = &cfg.params;
        let sites = p.num_sites as f64;
        let depth = match p.workload {
            Workload::Closed => sites * f64::from(p.mpl),
            Workload::Open { .. } => 64.0,
        };
        let policy = cfg.policy.name().to_lowercase();
        let select = curve(&[
            (4.0, format!("select.{policy}.s4_ns")),
            (16.0, format!("select.{policy}.s16_ns")),
            (64.0, format!("select.{policy}.s64_ns")),
        ])?;
        let users = if run.peak_active_users > 0 {
            zipf + interp(run.peak_active_users as f64, &arena)
        } else {
            0.0
        };
        let useful = if run.measured[CPU_DONE] == 0 {
            0.0
        } else {
            run.cpu_completions as f64 / run.measured[CPU_DONE] as f64
        };
        let c = |k: usize| run.count[k] as f64;
        let n: u64 = run.count.iter().sum();
        events += n;
        explained += n as f64 * interp(depth, &hold)
            + c(SUBMIT) * (interp(sites, &select) + per_query + DRAWS_PER_SUBMIT * draw + users)
            + c(CPU_DONE) * useful * interp(run.mean_cpu_queue.max(1.0), &ps)
            + c(DISK_DONE) * (fcfs + DRAWS_PER_READ * draw)
            + c(NET_DONE) * interp(sites, &ring)
            + c(STATUS_SEND) * publish;
    }
    (events > 0).then(|| explained / events as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interp_is_log_linear_and_clamped() {
        let pts = [(1.0, 10.0), (100.0, 30.0)];
        assert_eq!(interp(0.5, &pts), 10.0);
        assert_eq!(interp(1_000.0, &pts), 30.0);
        assert!((interp(10.0, &pts) - 20.0).abs() < 1e-12);
    }
}
