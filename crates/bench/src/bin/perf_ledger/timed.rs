//! The timed pass: every run of a workload driven the way
//! `dqa_core::experiment::run` drives it, with each run's measurement
//! window cut into equal chunks that are timed one at a time, and the
//! reference task ([`crate::reference`]) timed after every
//! [`REFERENCE_EVERY`]th chunk.
//!
//! On a shared host the simulator's speed drifts by up to half from one
//! stretch of seconds to the next, and other tenants slow it more than
//! they slow plain arithmetic. Short segments let each one be caught at
//! the host's fast moments: the fastest time of a segment over a run's
//! passes, summed over segments, is the pass as the host runs it at its
//! best. Dividing by the reference task's time at the same best moments
//! removes most of the drift that remains between runs. A segment lasts
//! about as long as one reference task, so that interference in bursts
//! shorter than a segment cannot favour one over the other.

use std::time::Instant;

use dqa_core::experiment::{RunConfig, RunReport};
use dqa_core::model::DbSystem;
use dqa_sim::{Engine, SimTime};

use crate::measure::{median, quantile};
use crate::reference;

/// Events one timed segment aims for. A run with more events is cut into
/// `ceil(events / SEGMENT_EVENTS)` chunks of its measurement window, so a
/// segment takes 3–4 ms on a 2-core x86-64 host, about as long as the
/// reference task.
const SEGMENT_EVENTS: u64 = 25_000;

/// Segments per reference task: the reference takes about a tenth of a
/// pass.
const REFERENCE_EVERY: usize = 8;

/// The share of reference samples below the one that stands for the
/// host's best moments. The segments' best is their minimum over about
/// ten passes, so the reference, sampled hundreds of times, is read at a
/// similar low quantile.
const REFERENCE_QUANTILE: f64 = 0.1;

/// What a run driven by hand must reproduce of its `run()` report. The
/// report's summary is private to `dqa_core`, so the check compares the
/// engine's step count and the metrics the report copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    steps: u64,
    completed: u64,
    mean_waiting: u64,
    mean_response: u64,
}

impl Outcome {
    pub fn of_report(r: &RunReport) -> Self {
        Outcome {
            steps: r.events,
            completed: r.completed,
            mean_waiting: r.mean_waiting.to_bits(),
            mean_response: r.mean_response.to_bits(),
        }
    }
}

/// How many chunks a run with this report is timed in.
pub fn chunks(r: &RunReport) -> usize {
    r.events.div_ceil(SEGMENT_EVENTS).max(1) as usize
}

/// One timed pass.
#[derive(Debug)]
pub struct TimedPass {
    /// Seconds of every segment, in run then chunk order. A run's first
    /// segment also holds its build, prime and warmup, as `run()` does.
    pub segments: Vec<f64>,
    /// Seconds of the reference task timed after every
    /// [`REFERENCE_EVERY`]th segment, starting with the first.
    pub reference: Vec<f64>,
    pub outcomes: Vec<Outcome>,
}

/// Runs every config, the `i`th in `chunks[i]` timed chunks.
pub fn timed_pass(configs: &[RunConfig], chunks: &[usize]) -> Result<TimedPass, String> {
    let mut pass = TimedPass {
        segments: Vec::new(),
        reference: Vec::new(),
        outcomes: Vec::with_capacity(configs.len()),
    };
    for (cfg, &k) in configs.iter().zip(chunks) {
        let mut started = Instant::now();
        let system =
            DbSystem::new(cfg.params.clone(), cfg.policy, cfg.seed).map_err(|e| e.to_string())?;
        let mut engine = Engine::new(system);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(cfg.warmup));
        let now = engine.now();
        engine.model_mut().reset_stats(now);
        for c in 1..=k {
            let end = if c == k {
                cfg.warmup + cfg.measure
            } else {
                cfg.warmup + cfg.measure * c as f64 / k as f64
            };
            engine.run_until(SimTime::new(end));
            pass.segments.push(started.elapsed().as_secs_f64());
            if (pass.segments.len() - 1).is_multiple_of(REFERENCE_EVERY) {
                pass.reference.push(reference::timed());
            }
            started = Instant::now();
        }
        let metrics = engine.model().metrics();
        pass.outcomes.push(Outcome {
            steps: engine.steps(),
            completed: metrics.completed(),
            mean_waiting: metrics.mean_waiting().to_bits(),
            mean_response: metrics.mean_response().to_bits(),
        });
    }
    Ok(pass)
}

/// The timed passes of one run of the benchmark.
#[derive(Debug, Default)]
pub struct Timings {
    passes: Vec<Vec<f64>>,
    reference: Vec<f64>,
}

impl Timings {
    pub fn push(&mut self, pass: TimedPass) {
        self.passes.push(pass.segments);
        self.reference.extend(pass.reference);
    }

    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Wall seconds of each pass: the sum of its segments.
    pub fn walls(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.iter().sum()).collect()
    }

    /// Seconds of the pass with every segment at its fastest.
    pub fn best_s(&self) -> f64 {
        let segments = self.passes.first().map_or(0, Vec::len);
        (0..segments)
            .map(|s| {
                self.passes
                    .iter()
                    .map(|p| p[s])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    /// Seconds of the reference task at the host's best moments.
    pub fn reference_s(&self) -> f64 {
        quantile(&self.reference, REFERENCE_QUANTILE)
    }

    /// The median reference task, for the text report.
    pub fn reference_median_s(&self) -> f64 {
        median(&self.reference)
    }

    /// The best pass in reference-task times.
    pub fn best_refs(&self) -> f64 {
        self.best_s() / self.reference_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqa_core::experiment::run;
    use dqa_core::params::SystemParams;
    use dqa_core::policy::PolicyKind;

    #[test]
    fn chunked_runs_reproduce_run() {
        let params = SystemParams::builder()
            .num_sites(2)
            .mpl(3)
            .think_time(100.0)
            .status_period(30.0)
            .status_msg_length(0.5)
            .build()
            .unwrap();
        let cfg = RunConfig::new(params, PolicyKind::Lert)
            .seed(3)
            .windows(100.0, 700.0);
        let want = Outcome::of_report(&run(&cfg).unwrap());
        for k in [1, 3, 7, 9] {
            let pass = timed_pass(std::slice::from_ref(&cfg), &[k]).unwrap();
            assert_eq!(pass.outcomes, [want], "{k} chunks");
            assert_eq!(
                (pass.segments.len(), pass.reference.len()),
                (k, k.div_ceil(REFERENCE_EVERY))
            );
        }
    }

    #[test]
    fn best_pass_takes_each_segment_at_its_fastest() {
        let mut t = Timings::default();
        for (segments, reference) in [(vec![3.0, 1.0], vec![0.5]), (vec![2.0, 4.0], vec![0.5])] {
            t.push(TimedPass {
                segments,
                reference,
                outcomes: Vec::new(),
            });
        }
        assert_eq!(t.walls(), [4.0, 6.0]);
        assert_eq!(t.best_s(), 3.0);
        assert_eq!(t.best_refs(), 6.0);
    }
}
