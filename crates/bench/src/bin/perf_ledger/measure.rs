//! Measuring helpers: the micro-benchmark timer, order statistics, the
//! report fingerprint, and peak memory.

use std::time::Instant;

use dqa_core::experiment::RunReport;

/// Samples per micro-benchmark; the median is reported (as in
/// `dqa_bench::timing::BenchGroup`).
const SAMPLES: usize = 7;

/// Wall time one micro-benchmark sample aims for.
const SAMPLE_SECS: f64 = 0.008;

/// Median ns per call of `f` over [`SAMPLES`] samples, each long enough
/// to reach [`SAMPLE_SECS`]. The iteration count is calibrated the way
/// `BenchGroup::bench` does it; `BenchGroup` prints its result and returns
/// nothing, so the ledger carries this copy. `f` returns a value derived
/// from its work so the optimizer cannot discard it.
pub fn ns_per_call(mut f: impl FnMut() -> u64) -> f64 {
    let mut iters = 1u64;
    let mut guard = 0u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            guard = guard.wrapping_add(std::hint::black_box(f()));
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= SAMPLE_SECS || iters >= 1 << 30 {
            break;
        }
        let growth = if elapsed <= 0.0 {
            8.0
        } else {
            (SAMPLE_SECS / elapsed * 1.5).clamp(2.0, 16.0)
        };
        iters = ((iters as f64) * growth).ceil() as u64;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                guard = guard.wrapping_add(std::hint::black_box(f()));
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    std::hint::black_box(guard);
    median(&samples)
}

/// The median of `values` (mean of the middle two for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile of `values`, interpolating linearly between the two
/// nearest order statistics (`q = 0` is the minimum, `q = 1` the maximum).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let below = at.floor() as usize;
    let above = (below + 1).min(v.len() - 1);
    v[below] + (v[above] - v[below]) * (at - below as f64)
}

/// First and third quartiles, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// The FNV-1a 64 offset basis: the hash of no bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64 hash over `bytes`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The combined fingerprint of a pass's reports: FNV-1a 64 over each
/// report's `Debug` text in run order, with `events` zeroed, because the
/// event count is a cost of the run, not one of its outputs.
pub fn fingerprint(reports: &[RunReport]) -> u64 {
    reports.iter().fold(FNV_BASIS, |hash, r| {
        let outputs = RunReport {
            events: 0,
            ..r.clone()
        };
        fnv1a(hash, format!("{outputs:?}").as_bytes())
    })
}

/// Simulation runs attempted and failed. A run fails if it returns an
/// error, panics, or produces output that differs from what it must
/// reproduce (a pin, the first pass, its untraced twin).
#[derive(Debug, Default, Clone, Copy)]
pub struct RunCount {
    pub attempted: u64,
    pub failed: u64,
}

impl RunCount {
    /// Runs `f` as `runs` attempted runs, catching a panic; on an error
    /// or a panic all `runs` count as failed and `None` is returned.
    pub fn attempt<T>(&mut self, runs: u64, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += runs;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .unwrap_or_else(|_| Err("panicked".to_string()));
        outcome
            .map_err(|e| {
                self.failed += runs;
                eprintln!("run failed: {e}");
            })
            .ok()
    }

    /// Marks `runs` already-attempted runs as failed.
    pub fn fail(&mut self, runs: u64, why: &str) {
        self.failed += runs;
        eprintln!("check failed: {why}");
    }
}

/// This process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqa_core::experiment::{run, RunConfig};
    use dqa_core::params::SystemParams;
    use dqa_core::policy::PolicyKind;

    #[test]
    fn order_statistics_match_python_and_numpy() {
        // statistics.median / statistics.quantiles(..., n=4) in CPython.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        // numpy.quantile's default (linear) rule.
        assert_eq!(quantile(&ten, 0.0), 1.0);
        assert_eq!(quantile(&ten, 1.0), 10.0);
        assert_eq!(quantile(&ten, 0.5), 5.5);
        assert!((quantile(&ten, 0.1) - 1.9).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let hash = |s: &str| fnv1a(FNV_BASIS, s.as_bytes());
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_is_stable_and_ignores_event_count() {
        let params = SystemParams::builder()
            .num_sites(2)
            .mpl(3)
            .think_time(100.0)
            .build()
            .unwrap();
        let cfg = RunConfig::new(params, PolicyKind::Bnq)
            .seed(9)
            .windows(100.0, 600.0);
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(fingerprint(std::slice::from_ref(&a)), fingerprint(&[b]));
        let recounted = RunReport {
            events: a.events + 1,
            ..a.clone()
        };
        assert_eq!(
            fingerprint(std::slice::from_ref(&a)),
            fingerprint(&[recounted])
        );
        let other = run(&cfg.clone().seed(10)).unwrap();
        assert_ne!(fingerprint(&[a]), fingerprint(&[other]));
    }
}
