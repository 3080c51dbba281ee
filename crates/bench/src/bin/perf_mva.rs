//! Analytic fast-path benchmark: lattice-shared MVA vs the naive path.
//!
//! Times the full Table 5/6 sweep (6 CPU ratios x 6 load matrices x 2
//! arriving classes, every cell a complete [`analyze_arrival`]) three ways:
//!
//! 1. **naive** — a local replica of the pre-cache study code: every
//!    waiting/unfairness query builds the site network and runs its own
//!    exact MVA recursion from scratch;
//! 2. **fast** — one lattice-shared [`StudyCache`] per CPU-ratio row, as
//!    `table05_wif`/`table06_fif` now run;
//! 3. **fast+par** — the fast path with ratio rows on the
//!    `dqa_core::parallel` pool (`--jobs`/`DQA_JOBS`).
//!
//! Before any timing, every fast-path cell is asserted **bit-for-bit**
//! equal to the naive cell (waiting/fairness values, WIF/FIF, chosen
//! sites). A speedup measured on a diverged computation is meaningless,
//! so divergence aborts the bench.
//!
//! Results go to stdout and to `results/BENCH_mva.json`. Set `DQA_QUICK=1`
//! for a fast smoke run.

use std::time::Instant;

use dqa_core::parallel;
use dqa_core::table::{fmt_f, TextTable};
use dqa_mva::allocation::{
    paper_cpu_ratios, paper_load_cases, ArrivalAnalysis, LoadMatrix, StudyCache, StudyConfig,
};
use dqa_mva::solve;

/// Exact waiting per cycle the way the study computed it before the cache:
/// build the site network, run a fresh lattice recursion, read one value.
fn naive_waiting(cfg: &StudyConfig, pop: [u32; 2], class: usize, solves: &mut u64) -> f64 {
    *solves += 1;
    solve(&cfg.site_network(), &pop).waiting_per_cycle(class)
}

/// Naive replica of `system_unfairness`: one scratch solve per occupied
/// site. Arithmetic matches `StudyCache::system_unfairness` exactly.
fn naive_unfairness(cfg: &StudyConfig, load: &LoadMatrix, solves: &mut u64) -> f64 {
    let mut weighted = [0.0f64; 2];
    let totals = [load.class_total(0), load.class_total(1)];
    if totals[0] == 0 || totals[1] == 0 {
        return 0.0;
    }
    for j in 0..LoadMatrix::SITES {
        let pop = load.site_population(j);
        if pop[0] == 0 && pop[1] == 0 {
            continue;
        }
        *solves += 1;
        let sol = solve(&cfg.site_network(), &pop);
        for c in 0..2 {
            if pop[c] > 0 {
                weighted[c] += f64::from(pop[c]) * sol.normalized_waiting(c);
            }
        }
    }
    let norm = [
        weighted[0] / f64::from(totals[0]),
        weighted[1] / f64::from(totals[1]),
    ];
    (norm[0] - norm[1]).abs()
}

/// Naive replica of `analyze_arrival`, counting its scratch MVA solves.
fn naive_analyze(
    cfg: &StudyConfig,
    load: &LoadMatrix,
    class: usize,
    solves: &mut u64,
) -> ArrivalAnalysis {
    let candidates = load.bnq_candidates();
    let mut waiting = [0.0f64; LoadMatrix::SITES];
    let mut fairness = [0.0f64; LoadMatrix::SITES];
    for j in 0..LoadMatrix::SITES {
        let after = load.with_arrival(class, j);
        waiting[j] = naive_waiting(cfg, after.site_population(j), class, solves);
        fairness[j] = naive_unfairness(cfg, &after, solves);
    }
    let opt_site = (0..LoadMatrix::SITES)
        .min_by(|&a, &b| waiting[a].total_cmp(&waiting[b]))
        .expect("four sites");
    let fair_site = (0..LoadMatrix::SITES)
        .min_by(|&a, &b| fairness[a].total_cmp(&fairness[b]))
        .expect("four sites");
    let avg = |values: &[f64; LoadMatrix::SITES]| {
        candidates.iter().map(|&j| values[j]).sum::<f64>() / candidates.len() as f64
    };
    ArrivalAnalysis {
        waiting_bnq: avg(&waiting),
        waiting_opt: waiting[opt_site],
        opt_site,
        fairness_bnq: avg(&fairness),
        fairness_opt: fairness[fair_site],
        fair_site,
        bnq_candidates: candidates,
    }
}

/// The full Table 5/6 sweep through the naive path.
fn sweep_naive(solves: &mut u64) -> Vec<ArrivalAnalysis> {
    let mut out = Vec::with_capacity(6 * 6 * 2);
    for (c1, c2) in paper_cpu_ratios() {
        let cfg = StudyConfig::new(c1, c2);
        for load in paper_load_cases() {
            for class in 0..2 {
                out.push(naive_analyze(&cfg, &load, class, solves));
            }
        }
    }
    out
}

/// The same sweep through per-ratio lattice-shared caches (serial).
fn sweep_fast(solves: &mut u64) -> Vec<ArrivalAnalysis> {
    let mut out = Vec::with_capacity(6 * 6 * 2);
    for (c1, c2) in paper_cpu_ratios() {
        let cache = StudyCache::new(StudyConfig::new(c1, c2));
        for load in paper_load_cases() {
            for class in 0..2 {
                out.push(cache.analyze_arrival(&load, class));
            }
        }
        *solves += cache.lattice_solves();
    }
    out
}

/// The fast sweep with ratio rows on the worker pool.
fn sweep_fast_parallel(jobs: usize) -> Vec<ArrivalAnalysis> {
    parallel::par_map(jobs, paper_cpu_ratios().to_vec(), |_, (c1, c2)| {
        let cache = StudyCache::new(StudyConfig::new(c1, c2));
        let mut row = Vec::with_capacity(6 * 2);
        for load in paper_load_cases() {
            for class in 0..2 {
                row.push(cache.analyze_arrival(&load, class));
            }
        }
        row
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Bitwise equality of two analyses: sites, candidate sets, and every
/// floating-point field compared via `to_bits`.
fn assert_cells_identical(naive: &[ArrivalAnalysis], fast: &[ArrivalAnalysis], label: &str) {
    assert_eq!(naive.len(), fast.len(), "{label}: cell count diverged");
    for (i, (n, f)) in naive.iter().zip(fast).enumerate() {
        let same = n.waiting_bnq.to_bits() == f.waiting_bnq.to_bits()
            && n.waiting_opt.to_bits() == f.waiting_opt.to_bits()
            && n.fairness_bnq.to_bits() == f.fairness_bnq.to_bits()
            && n.fairness_opt.to_bits() == f.fairness_opt.to_bits()
            && n.wif().to_bits() == f.wif().to_bits()
            && n.fif().to_bits() == f.fif().to_bits()
            && n.opt_site == f.opt_site
            && n.fair_site == f.fair_site
            && n.bnq_candidates == f.bnq_candidates;
        assert!(same, "{label}: cell {i} diverged from the naive path");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::var("DQA_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let reps: u32 = if quick { 1 } else { 5 };
    let jobs = parallel::jobs();

    println!(
        "perf_mva — Table 5/6 sweep (72 arrival analyses), {reps} repetition(s) per path, \
         jobs = {jobs}\n"
    );

    // ------------------------------------------------------------------
    // Correctness gates (untimed): fast == naive, serial and parallel.
    // ------------------------------------------------------------------
    let mut naive_solves = 0u64;
    let reference = sweep_naive(&mut naive_solves);
    let mut fast_solves = 0u64;
    let fast = sweep_fast(&mut fast_solves);
    assert_cells_identical(&reference, &fast, "fast serial");
    assert_cells_identical(&reference, &sweep_fast_parallel(jobs), "fast parallel");
    println!(
        "determinism gates passed: fast path bitwise-identical on all {} cells\n",
        reference.len()
    );

    // ------------------------------------------------------------------
    // Timing.
    // ------------------------------------------------------------------
    let time = |mut f: Box<dyn FnMut() + '_>| {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        start.elapsed().as_secs_f64() / f64::from(reps)
    };
    let naive_wall = time(Box::new(|| {
        let mut s = 0u64;
        std::hint::black_box(sweep_naive(&mut s));
    }));
    let fast_wall = time(Box::new(|| {
        let mut s = 0u64;
        std::hint::black_box(sweep_fast(&mut s));
    }));
    let par_wall = time(Box::new(|| {
        std::hint::black_box(sweep_fast_parallel(jobs));
    }));

    let speedup = naive_wall / fast_wall;
    let speedup_par = naive_wall / par_wall;
    let mut table = TextTable::new(vec!["path", "wall s", "MVA solves", "speedup"]);
    table.row(vec![
        "naive".into(),
        fmt_f(naive_wall, 4),
        naive_solves.to_string(),
        fmt_f(1.0, 2),
    ]);
    table.row(vec![
        "fast (cache)".into(),
        fmt_f(fast_wall, 4),
        fast_solves.to_string(),
        fmt_f(speedup, 2),
    ]);
    table.row(vec![
        format!("fast + par_map({jobs})"),
        fmt_f(par_wall, 4),
        fast_solves.to_string(),
        fmt_f(speedup_par, 2),
    ]);
    println!("{table}");
    println!(
        "lattice sharing: {naive_solves} scratch recursions collapse to {fast_solves} \
         ({:.1}x fewer); wall-clock speedup {speedup:.1}x serial, {speedup_par:.1}x \
         with {jobs} worker(s)",
        naive_solves as f64 / fast_solves as f64
    );
    if !quick {
        assert!(
            speedup >= 5.0,
            "fast path must be at least 5x the naive sweep, measured {speedup:.2}x"
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"perf_mva\",\n  \"quick\": {quick},\n  \"jobs\": {jobs},\n  \
         \"repetitions\": {reps},\n  \"cells\": {},\n  \"identical_bitwise\": true,\n  \
         \"naive_wall_secs\": {naive_wall:.6},\n  \"fast_wall_secs\": {fast_wall:.6},\n  \
         \"fast_parallel_wall_secs\": {par_wall:.6},\n  \"speedup_serial\": {speedup:.4},\n  \
         \"speedup_parallel\": {speedup_par:.4},\n  \"naive_mva_solves\": {naive_solves},\n  \
         \"fast_mva_solves\": {fast_solves}\n}}\n",
        reference.len(),
    );
    std::fs::create_dir_all("results")?;
    std::fs::write("results/BENCH_mva.json", &json)?;
    println!("wrote results/BENCH_mva.json");
    Ok(())
}
