//! The Section-3 optimal-allocation study: WIF and FIF.
//!
//! A four-site system with two query classes is analyzed one allocation
//! decision at a time. The load distribution is the matrix `L = [l_ij]`
//! giving the number of class-`i` queries at site `j`. A class-`i` query
//! arrives; each candidate site is evaluated by solving that site's closed
//! queueing network (one PS CPU + `num_disks` FCFS disks) exactly with MVA,
//! since — queries never migrating — each site is an independent closed
//! network under a static load.
//!
//! Two improvement factors compare the naive **BNQ** choice (site with the
//! fewest queries) to the best possible choice:
//!
//! * **WIF** — relative reduction in the arriving query's expected waiting
//!   time per cycle (Table 5);
//! * **FIF** — relative reduction in the system's unfairness, the absolute
//!   difference between the two classes' normalized waiting times (Table 6).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::{solve, Network, SolvedLattice, StationKind};

/// Index of a query class in the two-class study: `0` is the paper's class
/// 1 (I/O-bound), `1` is class 2 (CPU-bound).
pub type ClassIndex = usize;

/// Hardware of a DB site in the study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSpec {
    /// Number of disks (`num_disks`), each an FCFS server.
    pub num_disks: u32,
    /// Mean disk access time (`disk_time`); the paper's unit of time.
    pub disk_time: f64,
}

impl Default for SiteSpec {
    /// The paper's Table 4 settings: 2 disks, unit access time.
    fn default() -> Self {
        SiteSpec {
            num_disks: 2,
            disk_time: 1.0,
        }
    }
}

/// How the study's analytic model represents a site's `num_disks` disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskModel {
    /// One FCFS station per disk, visited with probability `1/num_disks`
    /// per cycle (demand `disk_time / num_disks` each). Matches the
    /// simulator's independent disk queues with random selection, and is
    /// the reading most consistent with the paper's numbers.
    #[default]
    SplitPerDisk,
    /// A single station with `num_disks` parallel servers sharing one
    /// queue, solved by exact load-dependent MVA. A slightly different
    /// physical system (requests never wait behind one disk while another
    /// idles); the `ablation_disk_model` binary quantifies the gap.
    MultiServer,
}

/// Full configuration of the analytic study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// Site hardware (identical at every site).
    pub site: SiteSpec,
    /// Per-page CPU demand of each class (`page_cpu_time`).
    pub page_cpu_time: [f64; 2],
    /// Analytic representation of the disks.
    pub disk_model: DiskModel,
}

impl StudyConfig {
    /// Creates a study configuration with the default site hardware.
    ///
    /// # Panics
    ///
    /// Panics if a CPU time is not positive and finite, or the site spec is
    /// degenerate.
    #[must_use]
    pub fn new(cpu_io: f64, cpu_cpu: f64) -> Self {
        let cfg = StudyConfig {
            site: SiteSpec::default(),
            page_cpu_time: [cpu_io, cpu_cpu],
            disk_model: DiskModel::SplitPerDisk,
        };
        cfg.validate();
        cfg
    }

    /// Switches the analytic disk representation.
    #[must_use]
    pub fn with_disk_model(mut self, model: DiskModel) -> Self {
        self.disk_model = model;
        self
    }

    fn validate(&self) {
        assert!(self.site.num_disks >= 1, "need at least one disk");
        assert!(
            self.site.disk_time.is_finite() && self.site.disk_time > 0.0,
            "invalid disk time"
        );
        for &t in &self.page_cpu_time {
            assert!(t.is_finite() && t > 0.0, "invalid page CPU time {t}");
        }
    }

    /// Builds the closed network of a single site: one PS CPU plus the
    /// disks under the configured [`DiskModel`].
    ///
    /// Under [`DiskModel::SplitPerDisk`], per cycle (one page read + one
    /// CPU burst) a query visits each disk with probability
    /// `1/num_disks`, so each disk station's demand is
    /// `disk_time / num_disks`; the disks' service is class-independent,
    /// keeping the network product-form. Under [`DiskModel::MultiServer`]
    /// the disks form one `num_disks`-server station with the full
    /// `disk_time` demand.
    #[must_use]
    pub fn site_network(&self) -> Network {
        let mut b = Network::builder(2).station(
            "cpu",
            StationKind::Queueing,
            [self.page_cpu_time[0], self.page_cpu_time[1]],
        );
        match self.disk_model {
            DiskModel::SplitPerDisk => {
                let per_disk = self.site.disk_time / f64::from(self.site.num_disks);
                for d in 0..self.site.num_disks {
                    b = b.station(
                        &format!("disk{d}"),
                        StationKind::Queueing,
                        [per_disk, per_disk],
                    );
                }
            }
            DiskModel::MultiServer => {
                b = b.station(
                    "disks",
                    StationKind::MultiServer {
                        servers: self.site.num_disks,
                    },
                    [self.site.disk_time, self.site.disk_time],
                );
            }
        }
        b.build().expect("validated config builds")
    }

    /// Total service demand per cycle of a class (CPU burst + disk read).
    #[must_use]
    pub fn cycle_demand(&self, class: ClassIndex) -> f64 {
        self.page_cpu_time[class] + self.site.disk_time
    }

    /// Expected waiting time per cycle for a `class` query at a site
    /// holding population `pop = [n_io, n_cpu]` (including the query
    /// itself).
    ///
    /// # Panics
    ///
    /// Panics if `pop[class] == 0` — the query being evaluated must be part
    /// of the population.
    #[must_use]
    pub fn waiting_per_cycle(&self, pop: [u32; 2], class: ClassIndex) -> f64 {
        self.waiting_per_cycle_in(&self.site_network(), pop, class)
    }

    /// [`StudyConfig::waiting_per_cycle`] against an already-built site
    /// network, so sweeps evaluating many populations build the network
    /// once instead of once per call. `network` must be this
    /// configuration's [`StudyConfig::site_network`] (or an equivalent
    /// 2-class network).
    ///
    /// # Panics
    ///
    /// Panics if `pop[class] == 0`.
    #[must_use]
    pub fn waiting_per_cycle_in(&self, network: &Network, pop: [u32; 2], class: ClassIndex) -> f64 {
        assert!(
            pop[class] > 0,
            "evaluated query must be present in the population"
        );
        solve(network, &pop).waiting_per_cycle(class)
    }
}

/// A memoized analytic engine for one [`StudyConfig`].
///
/// The naive study path rebuilds the site [`Network`] and reruns the exact
/// MVA recursion for every population it touches, even though one
/// recursion at a dominating population already visits every
/// sub-population. `StudyCache` builds the network once and keeps a small
/// set of [`SolvedLattice`]s; a query at population `p` is answered from
/// any cached lattice whose target dominates `p` (componentwise), solving
/// a fresh lattice — grown to cover everything seen so far — only on a
/// miss. Because a lattice view at a sub-population is bit-for-bit the
/// direct solve there, every cached answer is identical to the uncached
/// one.
///
/// The cache is single-threaded by design (interior mutability via
/// `RefCell`); parallel sweeps give each worker its own cache, which is
/// also the natural sharing boundary: a worker's row shares one
/// configuration.
///
/// # Example
///
/// ```
/// use dqa_mva::allocation::{LoadMatrix, StudyCache, StudyConfig};
///
/// let cache = StudyCache::new(StudyConfig::new(0.05, 1.0));
/// let load = LoadMatrix::new([[1, 1, 0, 0], [0, 0, 1, 1]]);
/// let a = cache.analyze_arrival(&load, 0);
/// assert!(a.wif() > 0.0);
/// let _ = cache.analyze_arrival(&load, 1);
/// // Re-analysis is answered entirely from the cached lattices:
/// let solves_before = cache.lattice_solves();
/// let _ = cache.analyze_arrival(&load, 1);
/// assert_eq!(cache.lattice_solves(), solves_before);
/// ```
#[derive(Debug)]
pub struct StudyCache {
    cfg: StudyConfig,
    network: Network,
    /// Solved lattices, most recently grown last; an entry is never
    /// mutated, so views handed out stay valid while new targets grow.
    solved: RefCell<Vec<Rc<SolvedLattice>>>,
    lattice_solves: Cell<u64>,
}

impl StudyCache {
    /// Creates a cache for `cfg`, building the site network once.
    #[must_use]
    pub fn new(cfg: StudyConfig) -> Self {
        StudyCache {
            network: cfg.site_network(),
            cfg,
            solved: RefCell::new(Vec::new()),
            lattice_solves: Cell::new(0),
        }
    }

    /// The configuration this cache answers for.
    #[must_use]
    pub fn config(&self) -> &StudyConfig {
        &self.cfg
    }

    /// How many exact lattice recursions this cache has run — the
    /// denominator of its savings (the naive path runs one per query).
    #[must_use]
    pub fn lattice_solves(&self) -> u64 {
        self.lattice_solves.get()
    }

    /// A solved lattice covering `pop`. On a miss, solves a lattice at the
    /// componentwise maximum of `pop` and every previously covered target,
    /// so repeated sweeps converge on a single shared lattice.
    #[must_use]
    pub fn solved(&self, pop: [u32; 2]) -> Rc<SolvedLattice> {
        let mut solved = self.solved.borrow_mut();
        // Most recently grown lattices dominate older ones: scan from the
        // end so the common case is one comparison.
        if let Some(hit) = solved.iter().rev().find(|lat| lat.covers(&pop)) {
            return Rc::clone(hit);
        }
        let mut target = pop;
        if let Some(last) = solved.last() {
            target[0] = target[0].max(last.target()[0]);
            target[1] = target[1].max(last.target()[1]);
        }
        let lat = Rc::new(SolvedLattice::new(&self.network, &target));
        self.lattice_solves.set(self.lattice_solves.get() + 1);
        solved.push(Rc::clone(&lat));
        lat
    }

    /// Cached [`StudyConfig::waiting_per_cycle`]: identical value, shared
    /// recursion.
    ///
    /// # Panics
    ///
    /// Panics if `pop[class] == 0`.
    #[must_use]
    pub fn waiting_per_cycle(&self, pop: [u32; 2], class: ClassIndex) -> f64 {
        assert!(
            pop[class] > 0,
            "evaluated query must be present in the population"
        );
        self.solved(pop).waiting_per_cycle(&pop, class)
    }

    /// Cached [`system_unfairness`]: identical value, shared recursion.
    #[must_use]
    pub fn system_unfairness(&self, load: &LoadMatrix) -> f64 {
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
            let sol = self.solved(pop);
            for c in 0..2 {
                if pop[c] > 0 {
                    weighted[c] += f64::from(pop[c]) * sol.normalized_waiting(&pop, c);
                }
            }
        }
        let norm = [
            weighted[0] / f64::from(totals[0]),
            weighted[1] / f64::from(totals[1]),
        ];
        (norm[0] - norm[1]).abs()
    }

    /// Cached [`analyze_arrival`]: identical values, shared recursion.
    #[must_use]
    pub fn analyze_arrival(&self, load: &LoadMatrix, class: ClassIndex) -> ArrivalAnalysis {
        let candidates = load.bnq_candidates();

        let mut waiting = [0.0f64; LoadMatrix::SITES];
        let mut fairness = [0.0f64; LoadMatrix::SITES];
        for j in 0..LoadMatrix::SITES {
            let after = load.with_arrival(class, j);
            waiting[j] = self.waiting_per_cycle(after.site_population(j), class);
            fairness[j] = self.system_unfairness(&after);
        }

        finish_arrival_analysis(candidates, &waiting, &fairness)
    }
}

/// A load-distribution matrix `L = [l_ij]`: `l_ij` class-`i` queries at
/// site `j`.
///
/// # Example
///
/// ```
/// use dqa_mva::allocation::LoadMatrix;
///
/// let l = LoadMatrix::new([[1, 1, 0, 0], [0, 0, 1, 1]]);
/// assert_eq!(l.site_total(0), 1);
/// assert_eq!(l.total(), 4);
/// let after = l.with_arrival(1, 2); // class-2 arrival at site 2
/// assert_eq!(after.site_population(2), [0, 2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadMatrix {
    counts: [[u32; LoadMatrix::SITES]; 2],
}

impl LoadMatrix {
    /// Number of sites in the Section-3 study.
    pub const SITES: usize = 4;

    /// Creates a load matrix; `counts[i][j]` is the number of class-`i`
    /// queries at site `j`.
    #[must_use]
    pub fn new(counts: [[u32; Self::SITES]; 2]) -> Self {
        LoadMatrix { counts }
    }

    /// The population vector `[n_io, n_cpu]` at site `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn site_population(&self, j: usize) -> [u32; 2] {
        [self.counts[0][j], self.counts[1][j]]
    }

    /// Total queries of both classes at site `j` (the `n_j` of Section 3).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn site_total(&self, j: usize) -> u32 {
        self.counts[0][j] + self.counts[1][j]
    }

    /// Total queries in the system.
    #[must_use]
    pub fn total(&self) -> u32 {
        (0..Self::SITES).map(|j| self.site_total(j)).sum()
    }

    /// Number of class-`class` queries in the system.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not 0 or 1.
    #[must_use]
    pub fn class_total(&self, class: ClassIndex) -> u32 {
        self.counts[class].iter().sum()
    }

    /// The matrix after a class-`class` arrival is allocated to site `j`.
    ///
    /// # Panics
    ///
    /// Panics if `class` or `j` is out of range.
    #[must_use]
    pub fn with_arrival(&self, class: ClassIndex, j: usize) -> LoadMatrix {
        let mut counts = self.counts;
        counts[class][j] += 1;
        LoadMatrix { counts }
    }

    /// The query-difference `QD`: `max |n_i - n_j|` over site pairs.
    #[must_use]
    pub fn query_difference(&self) -> u32 {
        let totals: Vec<u32> = (0..Self::SITES).map(|j| self.site_total(j)).collect();
        totals.iter().max().unwrap() - totals.iter().min().unwrap()
    }

    /// The sites the BNQ ("balance the number of queries") rule may select
    /// for an arrival: every site that minimizes the *resulting* query
    /// difference `QD(L + e_i)` (equivalently, the sites with the fewest
    /// queries).
    ///
    /// Section 3 defines BNQ by its goal — "minimize the query-difference
    /// of the system" — without a tie-break, and several of the paper's
    /// load matrices tie all four sites. The study therefore evaluates BNQ
    /// as the *average* over its candidate set, which reproduces the
    /// paper's reported structure (e.g. nonzero WIF for CPU-bound arrivals
    /// at fully balanced loads).
    #[must_use]
    pub fn bnq_candidates(&self) -> Vec<usize> {
        let qd_after = |j: usize| {
            let mut totals: Vec<u32> = (0..Self::SITES).map(|s| self.site_total(s)).collect();
            totals[j] += 1;
            totals.iter().max().unwrap() - totals.iter().min().unwrap()
        };
        let best = (0..Self::SITES).map(qd_after).min().expect("four sites");
        (0..Self::SITES).filter(|&j| qd_after(j) == best).collect()
    }
}

/// Outcome of evaluating one arrival `A(L, i)` under a [`StudyConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalAnalysis {
    /// Expected waiting per cycle under BNQ (averaged over its candidate
    /// sites — see [`LoadMatrix::bnq_candidates`]).
    pub waiting_bnq: f64,
    /// Minimum waiting per cycle over all sites.
    pub waiting_opt: f64,
    /// The BNQ candidate sites.
    pub bnq_candidates: Vec<usize>,
    /// Site index minimizing the arriving query's waiting.
    pub opt_site: usize,
    /// Expected system unfairness under BNQ (averaged over its candidate
    /// sites).
    pub fairness_bnq: f64,
    /// Minimum system unfairness over all sites.
    pub fairness_opt: f64,
    /// Site index minimizing unfairness.
    pub fair_site: usize,
}

impl ArrivalAnalysis {
    /// The Waiting Improvement Factor
    /// `WIF = (W_BNQ - W_OPT) / W_BNQ` (zero if BNQ already waits zero).
    /// Clamped to `[0, 1]`: the optimum can never truly exceed the BNQ
    /// average, but averaging identical floats can drift by an ulp.
    #[must_use]
    pub fn wif(&self) -> f64 {
        if self.waiting_bnq <= 0.0 {
            0.0
        } else {
            ((self.waiting_bnq - self.waiting_opt) / self.waiting_bnq).clamp(0.0, 1.0)
        }
    }

    /// The Fairness Improvement Factor
    /// `FIF = (F_BNQ - F_OPT) / F_BNQ` (zero if BNQ is already fair).
    /// Clamped to `[0, 1]` against floating-point drift.
    #[must_use]
    pub fn fif(&self) -> f64 {
        if self.fairness_bnq <= 0.0 {
            0.0
        } else {
            ((self.fairness_bnq - self.fairness_opt) / self.fairness_bnq).clamp(0.0, 1.0)
        }
    }
}

/// System unfairness for a completed allocation: the absolute difference of
/// the two classes' normalized waiting times, each averaged over the
/// queries of that class across all sites.
///
/// Returns `0.0` if either class is absent from the system (normalized
/// waiting is undefined with no queries to observe it).
#[must_use]
pub fn system_unfairness(cfg: &StudyConfig, load: &LoadMatrix) -> f64 {
    StudyCache::new(*cfg).system_unfairness(load)
}

/// Assembles an [`ArrivalAnalysis`] from the per-site exact values — the
/// shared tail of [`analyze_arrival`] and [`StudyCache::analyze_arrival`].
fn finish_arrival_analysis(
    candidates: Vec<usize>,
    waiting: &[f64; LoadMatrix::SITES],
    fairness: &[f64; LoadMatrix::SITES],
) -> ArrivalAnalysis {
    let opt_site = (0..LoadMatrix::SITES)
        .min_by(|&a, &b| waiting[a].total_cmp(&waiting[b]))
        .expect("four sites");
    let fair_site = (0..LoadMatrix::SITES)
        .min_by(|&a, &b| fairness[a].total_cmp(&fairness[b]))
        .expect("four sites");

    let over_candidates = |values: &[f64; LoadMatrix::SITES]| {
        candidates.iter().map(|&j| values[j]).sum::<f64>() / candidates.len() as f64
    };

    ArrivalAnalysis {
        waiting_bnq: over_candidates(waiting),
        waiting_opt: waiting[opt_site],
        opt_site,
        fairness_bnq: over_candidates(fairness),
        fairness_opt: fairness[fair_site],
        fair_site,
        bnq_candidates: candidates,
    }
}

/// Analyzes the arrival `A(L, class)`: evaluates every candidate site,
/// identifies the BNQ choice and both optima, and returns the raw numbers
/// from which [`ArrivalAnalysis::wif`] and [`ArrivalAnalysis::fif`] follow.
///
/// Delegates to a transient [`StudyCache`], so even a single call builds
/// the site network once and shares one exact recursion across the up to
/// twenty populations the analysis touches. Sweeps evaluating many load
/// cases under one configuration should hold a [`StudyCache`] of their own
/// and call [`StudyCache::analyze_arrival`] to share across calls too; the
/// values are identical either way.
#[must_use]
pub fn analyze_arrival(cfg: &StudyConfig, load: &LoadMatrix, class: ClassIndex) -> ArrivalAnalysis {
    StudyCache::new(*cfg).analyze_arrival(load, class)
}

/// The six load-distribution matrices of Tables 5 and 6, in column order.
/// (The technical-report scan is partly illegible; these are the best-effort
/// readings, consistent with the stated left-to-right growth in total
/// population.)
#[must_use]
pub fn paper_load_cases() -> [LoadMatrix; 6] {
    [
        LoadMatrix::new([[1, 1, 0, 0], [0, 0, 1, 1]]),
        LoadMatrix::new([[1, 1, 1, 0], [0, 0, 0, 1]]),
        LoadMatrix::new([[2, 1, 0, 0], [0, 0, 1, 1]]),
        LoadMatrix::new([[2, 1, 1, 0], [0, 0, 0, 1]]),
        LoadMatrix::new([[2, 1, 2, 0], [0, 0, 0, 1]]),
        LoadMatrix::new([[2, 1, 1, 0], [0, 1, 1, 2]]),
    ]
}

/// The six `(cpu_1, cpu_2)` per-page CPU-time pairs of Tables 5 and 6.
#[must_use]
pub fn paper_cpu_ratios() -> [(f64, f64); 6] {
    [
        (0.05, 0.5),
        (0.05, 1.0),
        (0.10, 1.0),
        (0.10, 2.0),
        (0.50, 2.0),
        (0.50, 2.5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_matrix_accessors() {
        let l = LoadMatrix::new([[2, 1, 0, 0], [0, 0, 1, 1]]);
        assert_eq!(l.site_population(0), [2, 0]);
        assert_eq!(l.site_total(0), 2);
        assert_eq!(l.total(), 5);
        assert_eq!(l.class_total(0), 3);
        assert_eq!(l.class_total(1), 2);
        assert_eq!(l.query_difference(), 1); // totals are [2, 1, 1, 1]
    }

    #[test]
    fn bnq_candidates_minimize_resulting_qd() {
        // totals [2, 1, 0, 1]: only the empty site keeps QD minimal.
        let l = LoadMatrix::new([[2, 1, 0, 0], [0, 0, 0, 1]]);
        assert_eq!(l.bnq_candidates(), vec![2]);
        // totals [2, 1, 1, 1]: any of the three 1-sites is a candidate.
        let l = LoadMatrix::new([[2, 1, 0, 0], [0, 0, 1, 1]]);
        assert_eq!(l.bnq_candidates(), vec![1, 2, 3]);
        // fully balanced: every site ties.
        let tie = LoadMatrix::new([[1, 1, 1, 1], [0, 0, 0, 0]]);
        assert_eq!(tie.bnq_candidates(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn with_arrival_adds_one() {
        let l = LoadMatrix::new([[0, 0, 0, 0], [0, 0, 0, 0]]);
        let l2 = l.with_arrival(1, 3);
        assert_eq!(l2.site_population(3), [0, 1]);
        assert_eq!(l2.total(), 1);
    }

    #[test]
    fn lone_query_at_empty_site_waits_zero() {
        let cfg = StudyConfig::new(0.05, 1.0);
        let w = cfg.waiting_per_cycle([1, 0], 0);
        assert!(w.abs() < 1e-12, "lone query should not wait, got {w}");
    }

    #[test]
    fn waiting_grows_with_same_class_contention() {
        let cfg = StudyConfig::new(0.05, 1.0);
        let w1 = cfg.waiting_per_cycle([1, 0], 0);
        let w2 = cfg.waiting_per_cycle([2, 0], 0);
        let w3 = cfg.waiting_per_cycle([3, 0], 0);
        assert!(w1 < w2 && w2 < w3);
    }

    #[test]
    fn complementary_class_interferes_less_than_same_class() {
        // An I/O-bound query suffers less from a CPU-bound co-resident than
        // from another I/O-bound query competing for the same disks.
        let cfg = StudyConfig::new(0.05, 1.0);
        let with_same = cfg.waiting_per_cycle([2, 0], 0);
        let with_other = cfg.waiting_per_cycle([1, 1], 0);
        assert!(
            with_other < with_same,
            "complementary mix should wait less: {with_other} vs {with_same}"
        );
    }

    #[test]
    fn wif_positive_when_classes_are_distinguishable() {
        // Case 1 of Table 5: sites 0-1 hold I/O-bound queries, sites 2-3
        // CPU-bound; all totals tie so BNQ averages over all four sites,
        // but an arriving I/O-bound query is better off at a CPU-bound
        // site.
        let cfg = StudyConfig::new(0.05, 1.0);
        let load = LoadMatrix::new([[1, 1, 0, 0], [0, 0, 1, 1]]);
        let a = analyze_arrival(&cfg, &load, 0);
        assert_eq!(a.bnq_candidates, vec![0, 1, 2, 3]);
        assert!(a.opt_site >= 2, "optimal site should hold the other class");
        assert!(a.wif() > 0.05, "WIF = {}", a.wif());
        assert!(a.wif() < 1.0);
    }

    #[test]
    fn cpu_bound_arrival_gains_at_balanced_load_with_skewed_ratio() {
        // Paper Table 5, L1 with cpu ratio .10/2.0 reports WIF = 0.31 for
        // the CPU-bound class: at a fully balanced load BNQ averages over
        // all sites while the optimum joins an I/O-bound site.
        let cfg = StudyConfig::new(0.10, 2.0);
        let load = LoadMatrix::new([[1, 1, 0, 0], [0, 0, 1, 1]]);
        let a = analyze_arrival(&cfg, &load, 1);
        assert!(a.opt_site <= 1, "CPU-bound arrival should join an I/O site");
        assert!(a.wif() > 0.1, "WIF = {}", a.wif());
    }

    #[test]
    fn wif_zero_when_all_sites_identical() {
        let cfg = StudyConfig::new(0.5, 0.5);
        // Perfect symmetry: same class everywhere, equal counts.
        let load = LoadMatrix::new([[1, 1, 1, 1], [0, 0, 0, 0]]);
        let a = analyze_arrival(&cfg, &load, 0);
        assert!(a.wif().abs() < 1e-9);
    }

    #[test]
    fn improvement_factors_are_in_unit_range() {
        for (c1, c2) in paper_cpu_ratios() {
            let cfg = StudyConfig::new(c1, c2);
            for load in paper_load_cases() {
                for class in 0..2 {
                    let a = analyze_arrival(&cfg, &load, class);
                    assert!((0.0..=1.0).contains(&a.wif()), "WIF out of range");
                    assert!((0.0..=1.0).contains(&a.fif()), "FIF out of range");
                    assert!(a.waiting_opt <= a.waiting_bnq + 1e-12);
                    assert!(a.fairness_opt <= a.fairness_bnq + 1e-12);
                }
            }
        }
    }

    #[test]
    fn unfairness_zero_for_single_class_system() {
        let cfg = StudyConfig::new(0.05, 1.0);
        let load = LoadMatrix::new([[1, 2, 1, 0], [0, 0, 0, 0]]);
        assert_eq!(system_unfairness(&cfg, &load), 0.0);
    }

    #[test]
    fn unfairness_detects_resource_bias() {
        // All queries pile on CPU-heavy demand: the CPU-bound class queues
        // disproportionately, so unfairness is positive.
        let cfg = StudyConfig::new(0.05, 2.0);
        let load = LoadMatrix::new([[1, 1, 0, 0], [1, 1, 0, 0]]);
        assert!(system_unfairness(&cfg, &load) > 0.0);
    }

    #[test]
    fn paper_cases_have_growing_population() {
        let totals: Vec<u32> = paper_load_cases().iter().map(LoadMatrix::total).collect();
        for w in totals.windows(2) {
            assert!(w[1] >= w[0], "populations should not shrink: {totals:?}");
        }
    }

    #[test]
    fn study_config_rejects_bad_input() {
        let result = std::panic::catch_unwind(|| StudyConfig::new(0.0, 1.0));
        assert!(result.is_err());
    }

    #[test]
    fn site_network_shape() {
        let cfg = StudyConfig::new(0.1, 1.0);
        let net = cfg.site_network();
        assert_eq!(net.num_stations(), 3); // cpu + 2 disks
        assert_eq!(net.demand(0, 0), 0.1);
        assert_eq!(net.demand(1, 0), 0.5);
        assert!((cfg.cycle_demand(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multiserver_site_network_shape() {
        let cfg = StudyConfig::new(0.1, 1.0).with_disk_model(DiskModel::MultiServer);
        let net = cfg.site_network();
        assert_eq!(net.num_stations(), 2); // cpu + one 2-server disk pool
        assert_eq!(net.demand(1, 0), 1.0);
    }

    #[test]
    fn multiserver_disks_wait_no_more_than_split_disks() {
        // A shared queue over both disks can never leave a request waiting
        // behind one disk while the other idles, so per-cycle waiting is
        // at most the split model's at every population examined.
        for (pop, class) in [([3, 0], 0), ([2, 2], 0), ([1, 3], 1), ([4, 1], 1)] {
            let split = StudyConfig::new(0.05, 1.0).waiting_per_cycle(pop, class);
            let pooled = StudyConfig::new(0.05, 1.0)
                .with_disk_model(DiskModel::MultiServer)
                .waiting_per_cycle(pop, class);
            assert!(
                pooled <= split + 1e-9,
                "pop {pop:?} class {class}: pooled {pooled} > split {split}"
            );
        }
    }

    // ------------------------------------------------------------------
    // StudyCache
    // ------------------------------------------------------------------

    #[test]
    fn cache_matches_uncached_study_bitwise() {
        // The cached engine must agree bit-for-bit with fresh per-call
        // evaluation, for every paper configuration and both disk models.
        for model in [DiskModel::SplitPerDisk, DiskModel::MultiServer] {
            for (c1, c2) in paper_cpu_ratios() {
                let cfg = StudyConfig::new(c1, c2).with_disk_model(model);
                let cache = StudyCache::new(cfg);
                for load in paper_load_cases() {
                    assert_eq!(
                        cache.system_unfairness(&load).to_bits(),
                        system_unfairness(&cfg, &load).to_bits()
                    );
                    for class in 0..2 {
                        let cached = cache.analyze_arrival(&load, class);
                        let fresh = analyze_arrival(&cfg, &load, class);
                        assert_eq!(cached.waiting_bnq.to_bits(), fresh.waiting_bnq.to_bits());
                        assert_eq!(cached.waiting_opt.to_bits(), fresh.waiting_opt.to_bits());
                        assert_eq!(cached.fairness_bnq.to_bits(), fresh.fairness_bnq.to_bits());
                        assert_eq!(cached.fairness_opt.to_bits(), fresh.fairness_opt.to_bits());
                        assert_eq!(cached.opt_site, fresh.opt_site);
                        assert_eq!(cached.fair_site, fresh.fair_site);
                        assert_eq!(cached.bnq_candidates, fresh.bnq_candidates);
                    }
                }
            }
        }
    }

    #[test]
    fn cache_waiting_matches_config_waiting_bitwise() {
        let cfg = StudyConfig::new(0.10, 2.0);
        let cache = StudyCache::new(cfg);
        for pop in [[1, 0], [3, 0], [2, 2], [1, 4], [0, 3]] {
            for class in 0..2 {
                if pop[class] == 0 {
                    continue;
                }
                assert_eq!(
                    cache.waiting_per_cycle(pop, class).to_bits(),
                    cfg.waiting_per_cycle(pop, class).to_bits(),
                    "pop {pop:?} class {class}"
                );
            }
        }
    }

    #[test]
    fn cache_shares_lattices_across_queries() {
        let cache = StudyCache::new(StudyConfig::new(0.05, 1.0));
        let _ = cache.waiting_per_cycle([3, 2], 0);
        let after_first = cache.lattice_solves();
        assert_eq!(after_first, 1);
        // Every dominated population is served from the same recursion.
        let _ = cache.waiting_per_cycle([1, 1], 1);
        let _ = cache.waiting_per_cycle([3, 0], 0);
        let _ = cache.waiting_per_cycle([0, 2], 1);
        assert_eq!(cache.lattice_solves(), after_first);
        // A miss grows one lattice to the componentwise max of everything
        // seen — so [4, 1] solves at [4, 2], and [4, 2] is then a hit.
        let _ = cache.waiting_per_cycle([4, 1], 0);
        assert_eq!(cache.lattice_solves(), 2);
        let _ = cache.waiting_per_cycle([4, 2], 0);
        assert_eq!(cache.lattice_solves(), 2);
        let _ = cache.waiting_per_cycle([3, 2], 0);
        assert_eq!(cache.lattice_solves(), 2);
    }

    #[test]
    fn cache_builds_network_once() {
        let cfg = StudyConfig::new(0.05, 1.0);
        let cache = StudyCache::new(cfg);
        assert_eq!(cache.network.num_stations(), 3);
        assert_eq!(cache.config(), &cfg);
    }

    #[test]
    fn waiting_per_cycle_in_matches_owned_network() {
        let cfg = StudyConfig::new(0.10, 1.0);
        let net = cfg.site_network();
        for pop in [[1, 0], [2, 1], [1, 3]] {
            for class in 0..2 {
                if pop[class] == 0 {
                    continue;
                }
                assert_eq!(
                    cfg.waiting_per_cycle_in(&net, pop, class).to_bits(),
                    cfg.waiting_per_cycle(pop, class).to_bits()
                );
            }
        }
    }

    #[test]
    fn improvement_factors_well_formed_under_multiserver_model() {
        for (c1, c2) in paper_cpu_ratios() {
            let cfg = StudyConfig::new(c1, c2).with_disk_model(DiskModel::MultiServer);
            for load in paper_load_cases() {
                for class in 0..2 {
                    let a = analyze_arrival(&cfg, &load, class);
                    assert!((0.0..=1.0).contains(&a.wif()));
                    assert!((0.0..=1.0).contains(&a.fif()));
                }
            }
        }
    }
}
