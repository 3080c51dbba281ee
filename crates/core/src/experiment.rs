//! The experiment harness: warmup, measurement, replication, capacity
//! search.

use dqa_sim::stats::{student_t_975, Tally};
use dqa_sim::{Engine, SimTime};

use crate::model::shard::{ShardEngine, ShardError};
use crate::model::DbSystem;
use crate::parallel;
use crate::params::{ParamsError, SystemParams};
use crate::policy::PolicyKind;

/// One simulation run: parameters, policy, seed, and the output-analysis
/// windows.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// System parameters.
    pub params: SystemParams,
    /// Allocation policy under test.
    pub policy: PolicyKind,
    /// Root random seed; replication `k` uses [`replication_seed`]
    /// (`seed.wrapping_add(k)` — the offsets wrap around `u64::MAX`).
    pub seed: u64,
    /// Simulated time discarded as warmup transient.
    pub warmup: f64,
    /// Simulated time measured after warmup.
    pub measure: f64,
}

impl RunConfig {
    /// Creates a run configuration with the default output-analysis
    /// windows (3 000 time units of warmup, 30 000 measured — roughly
    /// 9 000 completions at the paper's base parameters).
    #[must_use]
    pub fn new(params: SystemParams, policy: PolicyKind) -> Self {
        RunConfig {
            params,
            policy,
            seed: 1,
            warmup: 3_000.0,
            measure: 30_000.0,
        }
    }

    /// Sets the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the warmup and measurement windows.
    #[must_use]
    pub fn windows(mut self, warmup: f64, measure: f64) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }
}

/// Per-site station statistics of a run.
///
/// `PartialEq` compares every field bitwise (no rounding): it exists so
/// tests can assert that parallel and serial execution produce
/// *byte-identical* reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSummary {
    /// CPU busy fraction at the site.
    pub cpu_utilization: f64,
    /// Mean per-disk busy fraction at the site.
    pub disk_utilization: f64,
    /// Time-averaged queries resident at the CPU.
    pub mean_cpu_queue: f64,
    /// CPU bursts completed at the site (a proxy for work served).
    pub cpu_completions: u64,
}

/// Per-class results of a run.
///
/// `PartialEq` compares every field bitwise; see [`SiteSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSummary {
    /// The class name from [`SystemParams::classes`].
    pub name: String,
    /// Mean waiting time.
    pub mean_waiting: f64,
    /// Mean response time.
    pub mean_response: f64,
    /// Mean service demand actually received.
    pub mean_service: f64,
    /// Normalized mean waiting `Ŵ = W̄ / x̄`.
    pub normalized_waiting: f64,
    /// Completed queries of the class.
    pub completed: u64,
    /// Deadline expiries that cancelled an execution attempt (zero unless
    /// deadlines are enabled).
    pub deadline_timeouts: u64,
    /// Expired queries re-allocated to another site.
    pub deadline_reallocations: u64,
    /// Expired queries abandoned after exhausting their reallocation
    /// budget.
    pub deadline_abandoned: u64,
}

/// Results of one simulation run.
///
/// `PartialEq` compares every field bitwise (exact `f64` equality, no
/// tolerance). Two reports are equal only if the runs were numerically
/// indistinguishable — which is exactly the guarantee the deterministic
/// parallel executor makes, and what `tests/parallel_determinism.rs`
/// asserts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The policy's display name.
    pub policy: String,
    /// Measured simulated time.
    pub measured_time: f64,
    /// Mean waiting time over all queries (the paper's `W̄`).
    pub mean_waiting: f64,
    /// 95% batch-means half-width for `mean_waiting` (single-run
    /// confidence interval; infinite for very short runs).
    pub waiting_half_width: f64,
    /// Mean response time over all queries.
    pub mean_response: f64,
    /// Median response time (histogram approximation, 2-unit bins).
    pub response_p50: f64,
    /// 90th-percentile response time.
    pub response_p90: f64,
    /// 99th-percentile response time.
    pub response_p99: f64,
    /// Median response time from the streaming tail sketch (no range
    /// clamp, exactly mergeable — bit-identical across serial, `par_map`,
    /// and sharded execution).
    pub sketch_p50: f64,
    /// 99th-percentile response time from the tail sketch.
    pub sketch_p99: f64,
    /// 99.9th-percentile response time from the tail sketch — the far
    /// tail the fixed-range histogram cannot resolve.
    pub sketch_p999: f64,
    /// Signed fairness `F = Ŵ_io − Ŵ_cpu` (two-class runs).
    pub fairness: f64,
    /// Mean CPU utilization across sites (`ρ_c`).
    pub cpu_utilization: f64,
    /// Mean per-disk utilization across sites (`ρ_d`).
    pub disk_utilization: f64,
    /// Token-ring utilization.
    pub subnet_utilization: f64,
    /// Completions per time unit.
    pub throughput: f64,
    /// Fraction of queries executed away from their home site.
    pub transfer_fraction: f64,
    /// Time-averaged query difference `QD`.
    pub mean_query_difference: f64,
    /// Total completions measured.
    pub completed: u64,
    /// Mid-execution migrations (zero unless the migration extension is
    /// enabled).
    pub migrations: u64,
    /// Completed update-apply jobs at replicas (zero unless
    /// `update_fraction > 0`).
    pub propagations: u64,
    /// Fault-recovery retries (zero unless fault injection is enabled).
    pub queries_retried: u64,
    /// Queries abandoned after exhausting their retry budget.
    pub queries_lost: u64,
    /// Queries that completed despite at least one retry.
    pub queries_recovered: u64,
    /// Ring messages dropped in flight.
    pub msgs_lost: u64,
    /// Time-averaged fraction of sites up (1.0 without faults).
    pub mean_availability: f64,
    /// Deadline expiries that cancelled an execution attempt (zero unless
    /// the deadline lifecycle is enabled).
    pub deadline_timeouts: u64,
    /// Expired queries re-allocated to another site.
    pub deadline_reallocations: u64,
    /// Expired queries abandoned after their reallocation budget.
    pub deadline_abandoned: u64,
    /// Queries turned away by a full site into a retry backoff.
    pub admission_rejected: u64,
    /// Queries redirected by admission control to a site with room.
    pub admission_redirected: u64,
    /// Queries shed outright by admission control.
    pub admission_dropped: u64,
    /// Query/result frames dropped at a partition group boundary.
    pub partition_drops: u64,
    /// Hedge-eligible queries actually dispatched redundantly (effective
    /// level ≥ 2).
    pub hedged_dispatched: u64,
    /// Duplicate attempts spawned across all hedged dispatches.
    pub hedge_duplicates: u64,
    /// Hedged dispatches won by a duplicate rather than the primary.
    pub hedge_wins: u64,
    /// Hedge attempts reaped by first-win cancellation.
    pub hedge_cancelled: u64,
    /// Service time absorbed by reaped attempts (wasted redundant work).
    pub hedge_wasted_service: f64,
    /// Histogram of effective redundancy levels: index `i` counts
    /// eligible submissions dispatched to `i + 1` sites (empty when the
    /// redundancy layer never fired).
    pub redundancy_levels: Vec<u64>,
    /// Kernel events dispatched over the whole run (warmup included) —
    /// the denominator for ns/event in the perf benches. A CPU's
    /// superseded departure announcements are replaced in its timer slot,
    /// never dispatched, so they are not counted. Builds that still
    /// dispatched them (before the CPU timer slots) count about a fifth
    /// more events for the same run: `events` and ns/event do not compare
    /// across that change, while every other field is byte-identical.
    pub events: u64,
    /// High-water mark of concurrently active user sessions across all
    /// sites (zero without a user population).
    pub peak_active_users: u64,
    /// High-water mark of the user arenas' table footprint in bytes —
    /// divided by `peak_active_users` this is the measured
    /// bytes-per-active-user figure (zero without a user population).
    pub user_arena_peak_bytes: u64,
    /// Per-class breakdown.
    pub per_class: Vec<ClassSummary>,
    /// Per-site station breakdown.
    pub per_site: Vec<SiteSummary>,
}

/// Runs one simulation: build, prime, warm up, reset statistics, measure,
/// and summarize.
///
/// # Errors
///
/// Returns [`ParamsError`] if the configuration's parameters are invalid.
///
/// # Example
///
/// ```
/// use dqa_core::experiment::{run, RunConfig};
/// use dqa_core::params::SystemParams;
/// use dqa_core::policy::PolicyKind;
///
/// let params = SystemParams::builder().num_sites(2).mpl(5).build()?;
/// let report = run(&RunConfig::new(params, PolicyKind::Bnq).windows(500.0, 5_000.0))?;
/// assert!(report.completed > 0);
/// assert!(report.mean_response > report.mean_waiting);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run(config: &RunConfig) -> Result<RunReport, ParamsError> {
    let system = DbSystem::new(config.params.clone(), config.policy, config.seed)?;
    let mut engine = Engine::new(system);
    DbSystem::prime(&mut engine);

    engine.run_until(SimTime::new(config.warmup));
    let now = engine.now();
    engine.model_mut().reset_stats(now);

    let end = SimTime::new(config.warmup + config.measure);
    engine.run_until(end);

    Ok(summarize(
        engine.model(),
        end,
        config.measure,
        engine.steps(),
    ))
}

/// Runs one simulation under the conservative parallel executor
/// ([`crate::model::shard`]): same build/warmup/measure/summarize
/// schedule as [`run`], but LP windows drain across `jobs` worker
/// threads. Events at one instant run in the order they were scheduled,
/// as in [`run`], so the report is byte-identical to [`run`]'s on the
/// same configuration and seed; two different sites' per-site events at
/// one instant are the exception, ordered by site (see
/// [`crate::model::shard`]).
///
/// # Errors
///
/// Returns [`ShardError::Params`] if the parameters are invalid, or
/// [`ShardError::Unsupported`] if the configuration trips the
/// shardability gate ([`crate::model::shard::shardable`]).
///
/// # Example
///
/// ```
/// use dqa_core::experiment::{run, run_sharded, RunConfig};
/// use dqa_core::params::SystemParams;
/// use dqa_core::policy::PolicyKind;
///
/// let params = SystemParams::builder().num_sites(3).status_period(50.0).build()?;
/// let config = RunConfig::new(params, PolicyKind::Bnq).windows(500.0, 5_000.0);
/// let serial = run(&config)?;
/// let sharded = run_sharded(&config, 2)?;
/// assert_eq!(serial, sharded);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_sharded(config: &RunConfig, jobs: usize) -> Result<RunReport, ShardError> {
    let system = DbSystem::new(config.params.clone(), config.policy, config.seed)?;
    let mut engine = ShardEngine::new(system, jobs)?;

    engine.run_until(SimTime::new(config.warmup));
    let now = engine.now();
    engine.model_mut().reset_stats(now);

    let end = SimTime::new(config.warmup + config.measure);
    engine.run_until(end);

    Ok(summarize(
        engine.model(),
        end,
        config.measure,
        engine.steps(),
    ))
}

/// Extracts a [`RunReport`] from a measured model at time `end`.
fn summarize(model: &DbSystem, end: SimTime, measured_time: f64, events: u64) -> RunReport {
    debug_assert!({
        model.check_invariants();
        true
    });
    let metrics = model.metrics();
    let per_class = (0..model.params().classes.len())
        .map(|c| {
            let cm = metrics.class(c);
            ClassSummary {
                name: model.params().classes[c].name.clone(),
                mean_waiting: cm.waiting.mean(),
                mean_response: cm.response.mean(),
                mean_service: cm.service.mean(),
                normalized_waiting: cm.normalized_waiting(),
                completed: cm.waiting.count(),
                deadline_timeouts: cm.deadline_timeouts,
                deadline_reallocations: cm.deadline_reallocations,
                deadline_abandoned: cm.deadline_abandoned,
            }
        })
        .collect();
    let per_site = model
        .sites()
        .map(|s| SiteSummary {
            cpu_utilization: s.cpu.utilization(end),
            disk_utilization: s.disk_utilization(end),
            mean_cpu_queue: s.cpu.mean_population(end),
            cpu_completions: s.cpu.completions(),
        })
        .collect();

    RunReport {
        policy: model.policy_name().to_owned(),
        measured_time,
        mean_waiting: metrics.mean_waiting(),
        waiting_half_width: metrics.waiting_half_width(),
        mean_response: metrics.mean_response(),
        response_p50: metrics.response_quantile(0.5),
        response_p90: metrics.response_quantile(0.9),
        response_p99: metrics.response_quantile(0.99),
        sketch_p50: metrics.response_tail_quantile(0.5),
        sketch_p99: metrics.response_tail_quantile(0.99),
        sketch_p999: metrics.response_tail_quantile(0.999),
        fairness: metrics.fairness(),
        cpu_utilization: model.cpu_utilization(end),
        disk_utilization: model.disk_utilization(end),
        subnet_utilization: model.subnet_utilization(end),
        throughput: metrics.throughput(end),
        transfer_fraction: metrics.transfer_fraction(),
        mean_query_difference: metrics.mean_query_difference(end),
        completed: metrics.completed(),
        migrations: metrics.migrations(),
        propagations: metrics.propagations(),
        queries_retried: metrics.queries_retried(),
        queries_lost: metrics.queries_lost(),
        queries_recovered: metrics.queries_recovered(),
        msgs_lost: metrics.msgs_lost(),
        mean_availability: metrics.mean_availability(end),
        deadline_timeouts: metrics.deadline_timeouts(),
        deadline_reallocations: metrics.deadline_reallocations(),
        deadline_abandoned: metrics.deadline_abandoned(),
        admission_rejected: metrics.admission_rejected(),
        admission_redirected: metrics.admission_redirected(),
        admission_dropped: metrics.admission_dropped(),
        partition_drops: metrics.partition_drops(),
        hedged_dispatched: metrics.hedged_dispatched(),
        hedge_duplicates: metrics.hedge_duplicates(),
        hedge_wins: metrics.hedge_wins(),
        hedge_cancelled: metrics.hedge_cancelled(),
        hedge_wasted_service: metrics.hedge_wasted_service(),
        redundancy_levels: metrics.redundancy_levels().to_vec(),
        events,
        peak_active_users: model.user_arena_stats().1,
        user_arena_peak_bytes: model.user_arena_stats().3,
        per_class,
        per_site,
    }
}

/// Runs with *sequential stopping*: after the warmup, measurement extends
/// in chunks of `config.measure` until the batch-means 95% half-width of
/// the mean waiting time falls to `rel_half_width` of the mean (e.g.
/// `0.05` for ±5%), or `max_measure` simulated time units have been
/// measured. The report's `measured_time` records how long was actually
/// needed — a run-length oracle for sizing fixed-window studies.
///
/// This function stays serial by design: it extends *one* trajectory in
/// time, and each chunk's stopping decision depends on the statistics of
/// everything before it. The worker pool applies across independent
/// replications and probe points ([`run_replicated_jobs`],
/// [`max_mpl_for_response_jobs`]), never inside a single run.
///
/// # Errors
///
/// Returns [`ParamsError`] if the parameters are invalid.
///
/// # Panics
///
/// Panics if `rel_half_width` or `max_measure` is not positive.
pub fn run_to_precision(
    config: &RunConfig,
    rel_half_width: f64,
    max_measure: f64,
) -> Result<RunReport, ParamsError> {
    assert!(
        rel_half_width.is_finite() && rel_half_width > 0.0,
        "precision target must be positive"
    );
    assert!(
        max_measure.is_finite() && max_measure > 0.0,
        "measurement cap must be positive"
    );
    let system = DbSystem::new(config.params.clone(), config.policy, config.seed)?;
    let mut engine = Engine::new(system);
    DbSystem::prime(&mut engine);

    engine.run_until(SimTime::new(config.warmup));
    let now = engine.now();
    engine.model_mut().reset_stats(now);

    let mut measured = 0.0;
    loop {
        measured += config.measure;
        engine.run_until(SimTime::new(config.warmup + measured));
        let m = engine.model().metrics();
        let mean = m.mean_waiting().abs();
        let precise = mean > 0.0 && m.waiting_half_width() <= rel_half_width * mean;
        if precise || measured >= max_measure {
            let end = SimTime::new(config.warmup + measured);
            return Ok(summarize(engine.model(), end, measured, engine.steps()));
        }
    }
}

/// The seed of replication `k` of a run rooted at `base`:
/// `base.wrapping_add(k)`.
///
/// The offsets deliberately **wrap** around `u64::MAX` rather than
/// saturate: saturation would collapse the last replications of a
/// near-`u64::MAX` root seed onto the *same* seed, silently destroying
/// their independence, while wrapping keeps all `n` seeds distinct for
/// every root (`n < 2^64`). Wrapping is also what the bench harness's
/// cell-seed derivation already does, and — because it is a pure function
/// of `(base, k)` — it guarantees the parallel executor hands every
/// replication exactly the seed the serial loop would have.
#[must_use]
pub fn replication_seed(base: u64, k: u32) -> u64 {
    base.wrapping_add(u64::from(k))
}

/// Aggregate of independent replications (seeds
/// `replication_seed(seed, 0..n)`).
///
/// `PartialEq` compares the underlying reports bitwise; see
/// [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct Replicated {
    /// The individual run reports.
    pub reports: Vec<RunReport>,
}

impl Replicated {
    fn tally(&self, f: impl Fn(&RunReport) -> f64) -> Tally {
        let mut t = Tally::new();
        for r in &self.reports {
            t.record(f(r));
        }
        t
    }

    /// Mean over replications of a report field.
    #[must_use]
    pub fn mean(&self, f: impl Fn(&RunReport) -> f64) -> f64 {
        self.tally(f).mean()
    }

    /// 95% confidence half-width over replications of a report field.
    #[must_use]
    pub fn half_width(&self, f: impl Fn(&RunReport) -> f64) -> f64 {
        let t = self.tally(f);
        if t.count() < 2 {
            f64::INFINITY
        } else {
            student_t_975(t.count() - 1) * t.std_error()
        }
    }

    /// Mean waiting time `W̄` over replications.
    #[must_use]
    pub fn mean_waiting(&self) -> f64 {
        self.mean(|r| r.mean_waiting)
    }

    /// Mean response time over replications.
    #[must_use]
    pub fn mean_response(&self) -> f64 {
        self.mean(|r| r.mean_response)
    }

    /// Mean signed fairness over replications.
    #[must_use]
    pub fn mean_fairness(&self) -> f64 {
        self.mean(|r| r.fairness)
    }

    /// Mean CPU utilization over replications.
    #[must_use]
    pub fn mean_cpu_utilization(&self) -> f64 {
        self.mean(|r| r.cpu_utilization)
    }

    /// Mean subnet utilization over replications.
    #[must_use]
    pub fn mean_subnet_utilization(&self) -> f64 {
        self.mean(|r| r.subnet_utilization)
    }
}

/// Runs `replications` independent replications of `config` (seeds
/// `replication_seed(seed, 0..n)`) on [`parallel::jobs`] worker threads.
///
/// Every replication owns its seed, engine, and RNG substreams, and the
/// reports are collected in replication order, so the result is
/// byte-identical for every worker count (asserted in
/// `tests/parallel_determinism.rs`).
///
/// # Errors
///
/// Returns [`ParamsError`] if the parameters are invalid.
///
/// # Panics
///
/// Panics if `replications` is zero.
pub fn run_replicated(config: &RunConfig, replications: u32) -> Result<Replicated, ParamsError> {
    run_replicated_jobs(config, replications, parallel::jobs())
}

/// [`run_replicated`] with an explicit worker count (`jobs == 1` runs the
/// exact serial loop on the calling thread).
///
/// # Errors
///
/// Returns [`ParamsError`] if the parameters are invalid.
///
/// # Panics
///
/// Panics if `replications` or `jobs` is zero.
pub fn run_replicated_jobs(
    config: &RunConfig,
    replications: u32,
    jobs: usize,
) -> Result<Replicated, ParamsError> {
    assert!(replications > 0, "need at least one replication");
    let cfgs: Vec<RunConfig> = (0..replications)
        .map(|k| config.clone().seed(replication_seed(config.seed, k)))
        .collect();
    let reports = parallel::par_try_map(jobs, cfgs, |_, cfg| run(&cfg))?;
    Ok(Replicated { reports })
}

/// Percentage improvement of `x` over `base`: `(base − x) / base × 100`.
/// This is the `ΔW̄_{X,BASE} / W̄_BASE` of Tables 8–12.
#[must_use]
pub fn improvement_pct(base: f64, x: f64) -> f64 {
    // dqa-lint: allow(no-float-eq) -- division guard: only exact zero divides badly
    if base == 0.0 {
        0.0
    } else {
        (base - x) / base * 100.0
    }
}

/// Mean waiting time per equal time window of a run *without* warmup
/// truncation — the raw material for Welch's warmup-estimation procedure.
/// The run covers `config.warmup + config.measure` time units split into
/// `windows` slices; slices in which nothing completed repeat the
/// previous value.
///
/// # Errors
///
/// Returns [`ParamsError`] if the parameters are invalid.
///
/// # Panics
///
/// Panics if `windows` is zero.
pub fn waiting_time_series(config: &RunConfig, windows: usize) -> Result<Vec<f64>, ParamsError> {
    assert!(windows > 0, "need at least one window");
    let system = DbSystem::new(config.params.clone(), config.policy, config.seed)?;
    let mut engine = Engine::new(system);
    DbSystem::prime(&mut engine);

    let horizon = config.warmup + config.measure;
    let slice = horizon / windows as f64;
    let mut series = Vec::with_capacity(windows);
    let mut prev_count = 0u64;
    let mut prev_sum = 0.0f64;
    let mut last = 0.0f64;
    for k in 1..=windows {
        engine.run_until(SimTime::new(slice * k as f64));
        let m = engine.model().metrics();
        let count = m.completed();
        let sum = m.mean_waiting() * count as f64;
        if count > prev_count {
            last = (sum - prev_sum) / (count - prev_count) as f64;
        }
        series.push(last);
        prev_count = count;
        prev_sum = sum;
    }
    Ok(series)
}

/// Estimates an adequate warmup length (in simulated time units) for
/// `config` by Welch's procedure over `replications` independent runs:
/// the windowed waiting-time curves are averaged, smoothed, and the
/// returned time is where the curve settles into a ±25% band around its
/// steady-state level (waiting times are high-variance, so a tighter band
/// would mistake noise for transient). Returns `Ok(None)` when the curve
/// has not settled within the configured horizon — extend `measure`, add
/// replications, and retry.
///
/// # Errors
///
/// Returns [`ParamsError`] if the parameters are invalid.
///
/// # Panics
///
/// Panics if `replications` is zero.
pub fn suggest_warmup(config: &RunConfig, replications: u32) -> Result<Option<f64>, ParamsError> {
    suggest_warmup_jobs(config, replications, parallel::jobs())
}

/// [`suggest_warmup`] with an explicit worker count: the per-replication
/// waiting-time curves are simulated in parallel and averaged in
/// replication order, so the suggestion matches the serial procedure
/// exactly.
///
/// # Errors
///
/// Returns [`ParamsError`] if the parameters are invalid.
///
/// # Panics
///
/// Panics if `replications` or `jobs` is zero.
pub fn suggest_warmup_jobs(
    config: &RunConfig,
    replications: u32,
    jobs: usize,
) -> Result<Option<f64>, ParamsError> {
    assert!(replications > 0, "need at least one replication");
    const WINDOWS: usize = 40;
    let cfgs: Vec<RunConfig> = (0..replications)
        .map(|k| config.clone().seed(replication_seed(config.seed, k)))
        .collect();
    let series = parallel::par_try_map(jobs, cfgs, |_, cfg| waiting_time_series(&cfg, WINDOWS))?;
    let slice = (config.warmup + config.measure) / WINDOWS as f64;
    Ok(dqa_sim::stats::welch_truncation(&series, 3, 0.25).map(|cut| cut as f64 * slice))
}

/// The Table-10 capacity question: the largest `mpl` in
/// `mpl_range` for which the policy keeps mean response time at or below
/// `target_response`. Returns `None` if even the smallest `mpl` misses the
/// target.
///
/// Response time grows monotonically with `mpl` (up to noise), so the scan
/// stops at the first violation.
///
/// # Errors
///
/// Returns [`ParamsError`] if the parameters are invalid.
pub fn max_mpl_for_response(
    base: &RunConfig,
    target_response: f64,
    mpl_range: std::ops::RangeInclusive<u32>,
    replications: u32,
) -> Result<Option<u32>, ParamsError> {
    max_mpl_for_response_jobs(
        base,
        target_response,
        mpl_range,
        replications,
        parallel::jobs(),
    )
}

/// [`max_mpl_for_response`] with an explicit worker count. The MPL scan
/// is evaluated in chunks of `jobs` probes; the serial early-exit logic
/// is then replayed over the chunk's results in MPL order, so the answer
/// is identical to the one-at-a-time scan (at most `jobs − 1` probes past
/// the first violation are wasted). With `jobs == 1` the chunks have one
/// element and this *is* the serial scan, early exit included.
///
/// # Errors
///
/// Returns [`ParamsError`] if the parameters are invalid.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn max_mpl_for_response_jobs(
    base: &RunConfig,
    target_response: f64,
    mpl_range: std::ops::RangeInclusive<u32>,
    replications: u32,
    jobs: usize,
) -> Result<Option<u32>, ParamsError> {
    assert!(jobs >= 1, "worker count must be at least 1");
    let mpls: Vec<u32> = mpl_range.collect();
    let mut best = None;
    for chunk in mpls.chunks(jobs) {
        // Each probe replicates serially (jobs = 1): the parallelism lives
        // at the probe level, and nesting pools would oversubscribe.
        let probes = parallel::par_try_map(jobs, chunk.to_vec(), |_, mpl| {
            let mut cfg = base.clone();
            cfg.params.mpl = mpl;
            run_replicated_jobs(&cfg, replications, 1).map(|rep| (mpl, rep.mean_response()))
        })?;
        for (mpl, response) in probes {
            if response <= target_response {
                best = Some(mpl);
            } else {
                return Ok(best);
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RunConfig {
        let params = SystemParams::builder()
            .num_sites(3)
            .mpl(5)
            .think_time(100.0)
            .build()
            .unwrap();
        RunConfig::new(params, PolicyKind::Bnq).windows(500.0, 4_000.0)
    }

    #[test]
    fn run_produces_consistent_report() {
        let r = run(&small()).unwrap();
        assert!(r.completed > 100);
        assert_eq!(r.policy, "BNQ");
        assert!(r.mean_response >= r.mean_waiting);
        assert!(r.mean_waiting >= 0.0);
        assert!(r.throughput > 0.0);
        assert_eq!(r.per_class.len(), 2);
        let class_total: u64 = r.per_class.iter().map(|c| c.completed).sum();
        assert_eq!(class_total, r.completed);
    }

    #[test]
    fn response_equals_waiting_plus_service_per_class() {
        let r = run(&small()).unwrap();
        for c in &r.per_class {
            let recomposed = c.mean_waiting + c.mean_service;
            assert!(
                (recomposed - c.mean_response).abs() < 1e-6,
                "{}: {recomposed} vs {}",
                c.name,
                c.mean_response
            );
        }
    }

    #[test]
    fn replications_differ_but_aggregate() {
        let rep = run_replicated(&small(), 3).unwrap();
        assert_eq!(rep.reports.len(), 3);
        let w: Vec<f64> = rep.reports.iter().map(|r| r.mean_waiting).collect();
        assert!(
            w[0] != w[1] || w[1] != w[2],
            "replications identical: {w:?}"
        );
        let m = rep.mean_waiting();
        assert!(m > 0.0);
        assert!(rep.half_width(|r| r.mean_waiting).is_finite());
    }

    #[test]
    fn replication_seeds_wrap_at_u64_max_and_stay_distinct() {
        // Wrapping, not saturating: near-u64::MAX roots still get n
        // distinct replication seeds (saturation would alias the tail).
        let base = u64::MAX - 2;
        let seeds: Vec<u64> = (0..6).map(|k| replication_seed(base, k)).collect();
        assert_eq!(seeds, vec![u64::MAX - 2, u64::MAX - 1, u64::MAX, 0, 1, 2]);
    }

    #[test]
    fn run_replicated_survives_seed_overflow() {
        let cfg = small().seed(u64::MAX - 1).windows(300.0, 1_500.0);
        let rep = run_replicated(&cfg, 4).unwrap();
        assert_eq!(rep.reports.len(), 4);
        // The wrapped seeds are distinct, so the replications differ.
        let w: Vec<f64> = rep.reports.iter().map(|r| r.mean_waiting).collect();
        assert!(
            w.windows(2).any(|p| p[0] != p[1]),
            "replications identical: {w:?}"
        );
    }

    #[test]
    fn report_equality_is_reflexive_across_identical_runs() {
        let a = run(&small()).unwrap();
        let b = run(&small()).unwrap();
        assert_eq!(a, b);
        assert!(a.events > 0, "kernel event count should be recorded");
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn improvement_pct_signs() {
        assert!((improvement_pct(10.0, 5.0) - 50.0).abs() < 1e-12);
        assert!(improvement_pct(10.0, 12.0) < 0.0);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn capacity_search_is_monotone_in_target() {
        let cfg = small().windows(300.0, 2_000.0);
        let loose = max_mpl_for_response(&cfg, 80.0, 2..=8, 1).unwrap();
        let tight = max_mpl_for_response(&cfg, 25.0, 2..=8, 1).unwrap();
        if let (Some(l), Some(t)) = (loose, tight) {
            assert!(
                l >= t,
                "looser target must admit at least as many terminals"
            );
        }
        // An impossible target admits nothing.
        let none = max_mpl_for_response(&cfg, 0.0001, 2..=4, 1).unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn sequential_stopping_reaches_the_precision_target() {
        let cfg = small().windows(500.0, 2_000.0);
        let r = run_to_precision(&cfg, 0.1, 100_000.0).unwrap();
        assert!(
            r.waiting_half_width <= 0.1 * r.mean_waiting,
            "half-width {} exceeds 10% of mean {}",
            r.waiting_half_width,
            r.mean_waiting
        );
        // the chunk counter reports the time actually measured
        assert!(r.measured_time >= 2_000.0);
        assert!((r.measured_time / 2_000.0).fract().abs() < 1e-9);
    }

    #[test]
    fn sequential_stopping_respects_the_cap() {
        let cfg = small().windows(500.0, 1_000.0);
        // An absurd target cannot be reached; the cap bounds the run.
        let r = run_to_precision(&cfg, 1e-6, 3_000.0).unwrap();
        assert!(r.measured_time <= 3_000.0 + 1e-9);
    }

    #[test]
    fn response_percentiles_are_ordered_and_bracket_the_mean() {
        let r = run(&small()).unwrap();
        assert!(r.response_p50 <= r.response_p90);
        assert!(r.response_p90 <= r.response_p99);
        // Response distributions here are right-skewed: median < mean < p99.
        assert!(r.response_p50 < r.mean_response);
        assert!(r.mean_response < r.response_p99);
        // The sketch sees the same distribution: ordered tail, and a
        // median agreeing with the histogram's up to bin + sketch error.
        assert!(r.sketch_p50 <= r.sketch_p99);
        assert!(r.sketch_p99 <= r.sketch_p999);
        assert!(
            (r.sketch_p50 - r.response_p50).abs() <= 2.0 + 0.01 * r.response_p50,
            "sketch median {} vs histogram median {}",
            r.sketch_p50,
            r.response_p50
        );
        // No user population configured: the arena fields stay zero.
        assert_eq!(r.peak_active_users, 0);
        assert_eq!(r.user_arena_peak_bytes, 0);
    }

    #[test]
    fn waiting_series_has_requested_length_and_finite_values() {
        let series = waiting_time_series(&small(), 20).unwrap();
        assert_eq!(series.len(), 20);
        assert!(series.iter().all(|w| w.is_finite() && *w >= 0.0));
        // the system does accumulate waiting eventually
        assert!(series.iter().any(|&w| w > 0.0));
    }

    #[test]
    fn suggested_warmup_is_modest_at_moderate_load() {
        // The transient from an empty system at these parameters dies out
        // well within the horizon; Welch should find a settle point in
        // the first half.
        let cfg = small().windows(2_000.0, 10_000.0);
        let suggestion = suggest_warmup(&cfg, 5).unwrap();
        let warmup = suggestion.expect("curve should settle");
        assert!(
            warmup < 6_000.0,
            "suggested warmup {warmup} is over half the horizon"
        );
    }

    #[test]
    fn invalid_params_surface_as_error() {
        let mut cfg = small();
        cfg.params.think_time = -5.0;
        assert!(run(&cfg).is_err());
    }
}
