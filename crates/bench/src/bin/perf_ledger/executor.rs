//! Executor rows: the windowed parallel-in-time executor and the
//! replication pool, each gated bitwise against the serial path before it
//! is timed. No speedup is asserted: on a host with fewer cores than
//! workers the row is marked degraded and reported as measured.
//!
//! The windowed executor does not reproduce `run()` bitwise on every
//! shardable configuration: with updates on (`board_updates`) most runs
//! diverge, and without them an occasional BNQ/BNQRD run still does. A
//! diverged run is a finding about that executor, not an output of any
//! workload, so it is printed and left out of the timing rather than
//! counted as a failed run.

use std::time::Instant;

use dqa_bench::cell_seed;
use dqa_core::experiment::{run, run_replicated_jobs, run_sharded, RunConfig};
use dqa_core::parallel::cores_detected;
use dqa_core::params::SystemParams;
use dqa_core::policy::PolicyKind;

use crate::json::Metric;
use crate::measure::RunCount;
use crate::workloads::{WorkloadId, POLICIES, SEEDS};

/// Worker counts of the shard rows.
const SHARD_JOBS: [usize; 2] = [1, 2];

fn seconds<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

fn note_host(row: &str, jobs: usize, cores: usize) {
    println!(
        "executor {row}: cores_detected {cores}, jobs_requested {jobs}, degraded {}",
        jobs > cores
    );
}

/// Whether `run_sharded` reproduces `run()` on `cfg` at every job count.
fn identical(cfg: &RunConfig) -> bool {
    let serial = run(cfg).ok();
    serial.is_some()
        && SHARD_JOBS
            .iter()
            .all(|&j| run_sharded(cfg, j).ok() == serial)
}

/// `shard.jobs{1,2}_speedup` and `replicate.jobs2_speedup`.
///
/// The shard rows use `board_updates`' runs, first seeds first, on short
/// windows. Its own runs (with updates) are only gated, and the count
/// that diverges is printed; the timed runs are the same runs without
/// updates and with full replication: the first four, in seed-major
/// order, that reproduce `run()` at both job counts.
pub fn measure(quick: bool, shift: u64, runs: &mut RunCount) -> Vec<Metric> {
    let cores = cores_detected();
    let mut out = Vec::new();

    let measure = if quick { 2_000.0 } else { 8_000.0 };
    let grid = WorkloadId::BoardUpdates.configs(quick, shift);
    let seed_major: Vec<RunConfig> = (0..SEEDS as usize)
        .flat_map(|k| grid.iter().skip(k).step_by(SEEDS as usize))
        .map(|c| c.clone().windows(1_000.0, measure))
        .collect();
    let firsts = &seed_major[..POLICIES.len()];
    let diverged = firsts.iter().filter(|c| !identical(c)).count();
    println!(
        "executor shard: {diverged} of {} board_updates runs diverge from run()",
        firsts.len()
    );
    let (mut timed, mut skipped) = (Vec::new(), 0);
    for mut c in seed_major {
        if timed.len() == POLICIES.len() {
            break;
        }
        c.params.update_fraction = 0.0;
        c.params.copies = None;
        if identical(&c) {
            timed.push(c);
        } else {
            skipped += 1;
        }
    }
    println!(
        "executor shard: timing {} runs without updates; {skipped} diverged and were skipped",
        timed.len()
    );
    if !timed.is_empty() {
        let (base, _) = seconds(|| timed.iter().map(run).collect::<Vec<_>>());
        for jobs in SHARD_JOBS {
            note_host("shard", jobs, cores);
            let (wall, _) = seconds(|| {
                timed
                    .iter()
                    .map(|c| run_sharded(c, jobs))
                    .collect::<Vec<_>>()
            });
            out.push(Metric::new(
                format!("shard.jobs{jobs}_speedup"),
                "x",
                base / wall,
            ));
        }
    }

    // Four replications of the paper's base configuration.
    let cfg = RunConfig::new(SystemParams::paper_base(), PolicyKind::Lert)
        .seed(cell_seed(500).wrapping_add(shift))
        .windows(1_000.0, if quick { 2_000.0 } else { 10_000.0 });
    let replicate = |jobs: usize| run_replicated_jobs(&cfg, 4, jobs).map_err(|e| e.to_string());
    let one = runs.attempt(4, || replicate(1));
    let two = runs.attempt(4, || replicate(2));
    if one.is_some() && one == two {
        note_host("replicate", 2, cores);
        let (t1, _) = seconds(|| replicate(1));
        let (t2, _) = seconds(|| replicate(2));
        out.push(Metric::new("replicate.jobs2_speedup", "x", t1 / t2));
    } else if one.is_some() {
        runs.fail(4, "run_replicated_jobs(jobs=2) diverged from jobs=1");
    }
    out
}
