//! `perf_ledger` — one benchmark that prices the simulator end to end and
//! layer by layer.
//!
//! Users of this repository regenerate the paper's tables and run studies
//! such as `ext_live_service`; what they wait on is simulator wall time,
//! and what they trust is byte-identical `RunReport`s. The ledger runs
//! four canonical workloads through the public API, times the calls from
//! the outside, and checks every report against a pinned fingerprint.
//!
//! # Workloads
//!
//! | name | what | why |
//! |---|---|---|
//! | `paper_grid` | Closed, perfect board, read-only, full replication. Shapes `paper_base`, `mpl(35)` (Table 9 top) and `num_sites(10)` (Table 11 top), each × LOCAL/BNQ/BNQRD/LERT × 4 seeds, windows 3k/8k: 48 runs, 11.9M events. | The paper's own traffic. CPU and disk completions are 58% and 38% of events, so the PS/FCFS stations, the event queue and `SelectSite` do the work; every extension layer, the user arena and the shard executor are bypassed. |
//! | `live_1m` | Open: the `ext_live_service` acceptance run (1M Zipf users, diurnal and MMPP arrivals, LERT, seed 2026) on a 700k-unit horizon: 1 run, 15.5M events. | Exercises arrival thinning, the `UserArena` and the tail sketch; a `Submit` costs more here than anywhere else. Resilience layers and status frames are bypassed. |
//! | `resilience_all` | Closed, every layer active: costed board (50, 0.1), suspicion, deadlines (mean 500, floor 50), admission cap 15 with redirect, faults (mtbf 20k, mttr 200, loss 0.001, a 2-group partition over 20% of the window), redundancy n=2, migration. 4 policies × 4 seeds, windows 3k/24k: 16 runs, 12.2M events. | Cancellation, retries, hedging, deadline expiry and cancel frames run here, so a gain on the plain path that taxes this one shows. The user arena and arrival kernel are bypassed. |
//! | `board_updates` | Closed, costed status broadcasts (period 40, length 1; §4.4), 3 copies, 30% updates. 4 policies × 4 seeds, windows 3k/35k: 16 runs, 12.6M events. | Writes beside reads: read-one-write-all propagation, candidate-restricted `SelectSite`, status frames on the ring. The only workload `ShardGate` accepts, so executor changes show here and must leave the other three unchanged. |
//!
//! One pass runs every run of a workload once, serially; a pass takes
//! about two seconds on a 2-core x86-64 host, so a 30 s run holds about
//! ten. The experiment binaries run the same shapes longer
//! (windows 30k, 90k and 90k, and a 5.2M-unit horizon): one pass of that
//! size would fill a run, and on a shared host the best of many short
//! passes is much steadier than one long pass. The short shapes keep the
//! traffic: measured on the full-size runs, the event mix is the same to
//! 0.2 points and events per query agree within 0.6% (paper_grid 52.8 vs
//! 52.9, live_1m 55.0 vs 54.9, resilience_all 106.5 vs 107.1,
//! board_updates 71.2 vs 71.0). What shrinks is `live_1m`'s user arena:
//! 43,058 peak active users (1.5 MiB of slots, peak RSS 5.0 MiB) against
//! 174,250 (6 MiB, 9.9 MiB) over the full horizon. The arena at 170k
//! users is priced on its own by `users.begin_query_ns.a170k`.
//!
//! # End-to-end metrics (tracing off)
//!
//! | metric | unit | better | meaning |
//! |---|---|---|---|
//! | `pass_refs` | ref | lower | one pass with every timed segment at its fastest, in reference-task times |
//! | `queries_per_ref` | 1/ref | higher | Σ `RunReport.completed` of a pass / `pass_refs` |
//! | `setup_s` | s | lower | Σ over the pass's runs of the run's fastest timed `DbSystem::new` + `Engine::new` + `prime`, out of 11 after each timed pass |
//! | `peak_rss_mb` | MiB | lower | `VmHWM` of the process |
//!
//! Pass 1 runs through `run()` and its reports are fingerprinted. The
//! timed passes after it drive the engine by hand the way `run()` does,
//! with runs cut into chunks of their measurement window, each timed
//! alone, and a fixed reference task of about the same length timed
//! between them (`timed.rs`, `reference.rs`). A shared host slows the
//! simulator by up to half for minutes at a time. On a 2-core x86-64
//! host, in two sets of ten 30 s runs per workload, `pass_refs` and
//! `queries_per_ref` spread (quartile distance over median) 0.9–2.5%,
//! where the median pass's plain `queries_per_s` spread 5–21% in the
//! same runs. The plain wall
//! seconds of every pass (minimum, quartiles, median) and the plain
//! `queries_per_s` are printed above the result line, not gated.
//!
//! A run fails if it returns an error, panics, its report's fingerprint
//! differs from the pin, or a timed or traced pass does not reproduce
//! pass 1's step count, completions and mean waiting and response; the
//! result line counts runs attempted and failed, and `failed_run_frac`
//! (failed / attempted) is printed above it.
//!
//! # Per-layer metrics (`--trace`)
//!
//! The traced pass drives the serial engine by hand with an observer that
//! charges the wall time between events to the previous event's kind
//! (`trace.rs`). Alongside it the run prices each layer alone through its
//! public functions (`micro.rs`), the eight extension specs absent, inert
//! and active (`lattice.rs`), and the two executors (`executor.rs`), and
//! reconciles counts × microcosts with the measured ns/event
//! (`attrib.rs`). `BENCHMARK.json` at the repository root lists every
//! metric with its unit and direction.
//!
//! # Running
//!
//! ```text
//! M=crates/bench/src/bin/perf_ledger/Cargo.toml
//! cargo run --release --manifest-path $M                         # 4 workloads × 5 passes
//! cargo run --release --manifest-path $M -- --trace              # plus per-layer metrics
//! cargo run --release --manifest-path $M -- --quick              # smoke run
//! cargo run --release --manifest-path $M -- \
//!     --workload live_1m --seed 3 --seconds 30 --trace 0         # one workload, timed
//! cargo test --manifest-path $M                                  # the unit tests
//! ```
//!
//! Without `--workload` the ledger runs pass 1 of every workload, then
//! pass 2, and so on, each pass in a fresh child process (so each has its
//! own peak RSS), one process at a time, and reports the median and
//! quartiles of R = 5 passes. With `--workload` it runs that workload for
//! `--seconds` and prints one JSON result line last. `--seed S` adds `S`
//! to every workload seed; at the default `0` the pins apply.

#![forbid(unsafe_code)]

mod attrib;
mod executor;
mod json;
mod lattice;
mod measure;
mod micro;
mod pins;
mod reference;
mod timed;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use dqa_core::experiment::{run, RunConfig, RunReport};
use dqa_core::model::DbSystem;
use dqa_sim::Engine;

use json::Metric;
use measure::{fingerprint, median, quartiles, RunCount};
use timed::{Outcome, Timings};
use trace::{
    Gaps, TracedPass, CPU_DONE, DEADLINE_EXPIRE, DISK_DONE, KIND_NAMES, NET_DONE, RESUBMIT,
    STATUS_SEND, SUBMIT,
};
use workloads::WorkloadId;

const USAGE: &str =
    "usage: perf_ledger [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]";

/// Passes per workload in ledger mode.
const PASSES: usize = 5;

/// Timed set-ups of each run after every timed pass, for `setup_s`.
const SETUP_REPEATS: usize = 11;

/// Event kinds whose `gap_ns` and `per_query` every traced run reports.
/// Other kinds are printed on text lines where they occur.
const REPORTED_KINDS: [usize; 7] = [
    SUBMIT,
    CPU_DONE,
    DISK_DONE,
    NET_DONE,
    STATUS_SEND,
    DEADLINE_EXPIRE,
    RESUBMIT,
];

/// The workload whose traffic carries event kind `k`: status frames need
/// a costed board, deadline expiry and resubmission the resilience stack.
fn carrier(k: usize) -> WorkloadId {
    if k == STATUS_SEND {
        WorkloadId::BoardUpdates
    } else {
        WorkloadId::ResilienceAll
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: 0.0,
        trace: false,
        quick: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let name = value()?;
                out.workload = Some(
                    WorkloadId::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 0.0 && out.seconds <= 3_600.0) {
                    return Err("--seconds must be in [0, 3600]".to_string());
                }
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    out.trace = false;
                    i += 1;
                }
                Some("1") => {
                    out.trace = true;
                    i += 1;
                }
                _ => out.trace = true,
            },
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => {
            single(w, &args);
            ExitCode::SUCCESS
        }
        None => ledger(&args),
    }
}

// ----------------------------------------------------------------------
// One workload in this process
// ----------------------------------------------------------------------

/// One pass: every run of the workload, serially. Returns the pass's wall
/// seconds and its reports.
fn run_pass(configs: &[RunConfig]) -> Result<(f64, Vec<RunReport>), String> {
    let started = Instant::now();
    let reports = configs
        .iter()
        .map(|c| run(c).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((started.elapsed().as_secs_f64(), reports))
}

/// One round of set-up timing: [`SETUP_REPEATS`] timed set-ups
/// (`DbSystem::new` + `Engine::new` + `prime`) of every run, each added
/// to `samples[run]`.
fn time_setups(configs: &[RunConfig], samples: &mut [Vec<f64>]) -> Result<(), String> {
    for (cfg, times) in configs.iter().zip(samples) {
        for _ in 0..SETUP_REPEATS {
            let started = Instant::now();
            let system = DbSystem::new(cfg.params.clone(), cfg.policy, cfg.seed)
                .map_err(|e| e.to_string())?;
            let mut engine = Engine::new(system);
            DbSystem::prime(&mut engine);
            let engine = std::hint::black_box(engine);
            times.push(started.elapsed().as_secs_f64());
            drop(engine);
        }
    }
    Ok(())
}

/// Checks the workload's quick pass at the default seeds against its pin.
fn check_quick_pin(w: WorkloadId, runs: &mut RunCount) {
    let configs = w.configs(true, 0);
    let n = configs.len() as u64;
    if let Some((_, reports)) = runs.attempt(n, || run_pass(&configs)) {
        let (got, want) = (fingerprint(&reports), pins::pin(w, true));
        println!("pin quick {}: {got:016x} (pinned {want:016x})", w.name());
        if got != want {
            runs.fail(n, "quick pass differs from its pin");
        }
    }
}

/// What [`passes`] measured.
struct Passes {
    timings: Timings,
    /// Seconds of every timed set-up, per run (untraced runs).
    setups: Vec<Vec<f64>>,
    completed: u64,
    events: u64,
    traced: Vec<TracedPass>,
}

/// Runs pass 1 through `run()` and checks its fingerprint against the pin
/// at the default seeds; then repeats timed passes, each of which must
/// reproduce pass 1 run by run, until another would end past `deadline`
/// (always at least one). Each timed pass is followed by a traced one,
/// whose step counts must equal pass 1's event counts, or by a round of
/// set-up timing.
fn passes(
    w: WorkloadId,
    args: &Args,
    traced: bool,
    deadline: Instant,
    runs: &mut RunCount,
) -> Passes {
    let configs = w.configs(args.quick, args.seed);
    let n = configs.len() as u64;
    let mut out = Passes {
        timings: Timings::default(),
        setups: vec![Vec::new(); configs.len()],
        completed: 0,
        events: 0,
        traced: Vec::new(),
    };
    let Some((wall, reports)) = runs.attempt(n, || run_pass(&configs)) else {
        return out;
    };
    let fp = fingerprint(&reports);
    println!("fingerprint {} {fp:016x}", w.name());
    println!("pass 1 through run() took {wall:.4} s");
    if args.seed == 0 && fp != pins::pin(w, args.quick) {
        runs.fail(n, "pass 1 differs from its pin");
    }
    out.completed = reports.iter().map(|r| r.completed).sum();
    out.events = reports.iter().map(|r| r.events).sum();
    let expected: Vec<Outcome> = reports.iter().map(Outcome::of_report).collect();
    let chunks: Vec<usize> = reports.iter().map(timed::chunks).collect();
    loop {
        let step = Instant::now();
        let Some(pass) = runs.attempt(n, || timed::timed_pass(&configs, &chunks)) else {
            break;
        };
        let mismatched = pass
            .outcomes
            .iter()
            .zip(&expected)
            .filter(|(got, want)| got != want)
            .count();
        if mismatched > 0 {
            runs.fail(mismatched as u64, "a timed pass differs from pass 1");
        }
        out.timings.push(pass);
        if traced {
            let Some(pass) = runs.attempt(n, || Ok(trace::traced_pass(&configs))) else {
                break;
            };
            let mismatched = pass
                .runs
                .iter()
                .zip(&reports)
                .filter(|(t, r)| t.steps != r.events || t.completed != r.completed)
                .count();
            if mismatched > 0 {
                runs.fail(
                    mismatched as u64,
                    "traced steps differ from untraced events",
                );
            }
            out.traced.push(pass);
        } else {
            runs.attempt(0, || time_setups(&configs, &mut out.setups));
        }
        if Instant::now() + step.elapsed() > deadline {
            break;
        }
    }
    out
}

/// Runs one workload for `--seconds` and prints its result line last.
fn single(w: WorkloadId, args: &Args) {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut runs = RunCount::default();
    println!(
        "perf_ledger {} — {} mode, seed shift {}, {} s, trace {}",
        w.name(),
        if args.quick { "quick" } else { "full" },
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    check_quick_pin(w, &mut runs);
    let metrics = if args.trace {
        traced_metrics(w, args, deadline, &mut runs)
    } else {
        end_to_end_metrics(w, args, deadline, &mut runs)
    };
    for m in &metrics {
        println!("  {:40} {:>18.7} {}", m.name, m.value, m.unit);
    }
    println!(
        "runs attempted {} failed {} (failed_run_frac {})",
        runs.attempted,
        runs.failed,
        runs.failed as f64 / runs.attempted.max(1) as f64
    );
    println!(
        "{}",
        json::result_line(runs.failed == 0, runs.attempted, runs.failed, &metrics)
    );
}

/// `pass_refs` is the pass with every segment at its fastest, counted in
/// reference-task times (`timed.rs`). The plain wall seconds of the
/// passes are printed above the result line; on a shared host they
/// spread too far between runs to be gated.
fn end_to_end_metrics(
    w: WorkloadId,
    args: &Args,
    deadline: Instant,
    runs: &mut RunCount,
) -> Vec<Metric> {
    let p = passes(w, args, false, deadline, runs);
    if p.timings.is_empty() {
        return Vec::new();
    }
    let walls = p.timings.walls();
    let (q1, q3) = quartiles(&walls);
    println!(
        "timed passes R = {}: wall_s min {:.4} q1 {q1:.4} median {:.4} q3 {q3:.4} max {:.4} s; \
         best segments {:.4} s; reference task q10 {:.6} median {:.6} s",
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&walls),
        walls.iter().copied().fold(0.0, f64::max),
        p.timings.best_s(),
        p.timings.reference_s(),
        p.timings.reference_median_s(),
    );
    println!(
        "plain wall clock: queries_per_s {:.1} at the median pass",
        p.completed as f64 / median(&walls)
    );
    let refs = p.timings.best_refs();
    let mut out = vec![
        Metric::new("queries_per_ref", "1/ref", p.completed as f64 / refs),
        Metric::new("pass_refs", "ref", refs),
    ];
    // Each run's fastest set-up over the whole measurement, like the
    // segments of `pass_refs`: the median of each round drifted by a
    // quarter between sets of runs of the same code on a shared host.
    if p.setups.iter().all(|s| !s.is_empty()) {
        let setup: f64 = p
            .setups
            .iter()
            .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
            .sum();
        out.push(Metric::new("setup_s", "s", setup));
    }
    if let Some(mb) = measure::peak_rss_mb() {
        out.push(Metric::new("peak_rss_mb", "MiB", mb));
    }
    out
}

fn traced_metrics(
    w: WorkloadId,
    args: &Args,
    deadline: Instant,
    runs: &mut RunCount,
) -> Vec<Metric> {
    let observer_ns = trace::observer_ns();
    let micro = micro::all();
    let lattice = lattice::measure(args.quick, args.seed, runs);
    let exec = executor::measure(args.quick, args.seed, runs);
    let p = passes(w, args, true, deadline, runs);
    let Some(first) = p.traced.first() else {
        return Vec::new();
    };
    let configs = w.configs(args.quick, args.seed);

    let mut gaps = trace::Gaps::new();
    for pass in &p.traced {
        gaps.merge(&pass.gaps);
    }
    let sum = |f: &dyn Fn(&trace::TracedRun) -> u64| first.runs.iter().map(f).sum::<u64>();
    let completed = sum(&|r| r.completed) as f64;
    let measured = |k: usize| sum(&|r| r.measured[k]) as f64;
    let untraced_wall = median(&p.timings.walls());
    let traced_wall = median(&p.traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let ns_per_event = untraced_wall * 1e9 / p.events as f64;
    let window_events: f64 = (0..trace::KINDS).map(measured).sum();

    for (k, name) in KIND_NAMES.iter().enumerate() {
        if gaps.count[k] > 0 {
            println!(
                "kind {name:16} events {:>10} gap {:>9.1} ns  per query {:.4}",
                gaps.count[k],
                gaps.mean_gap_ns(k),
                measured(k) / completed
            );
        }
    }

    let mut out = vec![
        Metric::new("engine.ns_per_event", "ns", ns_per_event),
        Metric::new(
            "engine.events_per_query",
            "events/query",
            window_events / completed,
        ),
        Metric::new("engine.gap_p50_ns", "ns", gaps.smoothed_quantile(0.5, 0.01)),
        Metric::new(
            "engine.gap_p999_ns",
            "ns",
            gaps.smoothed_quantile(0.999, 0.0005),
        ),
    ];
    // A kind this workload never handles is priced on a quick traced pass
    // of the workload that carries it; its per_query here stays 0.
    let mut carried: Vec<(WorkloadId, Gaps)> = Vec::new();
    for k in REPORTED_KINDS {
        let gap = if gaps.charged[k] > 0 {
            gaps.mean_gap_ns(k)
        } else {
            let c = carrier(k);
            if !carried.iter().any(|(w, _)| *w == c) {
                let configs = c.configs(true, args.seed);
                if let Some(pass) =
                    runs.attempt(configs.len() as u64, || Ok(trace::traced_pass(&configs)))
                {
                    carried.push((c, pass.gaps));
                }
            }
            let gap = carried
                .iter()
                .find(|(w, _)| *w == c)
                .map_or(f64::NAN, |(_, g)| g.mean_gap_ns(k));
            println!(
                "kind {}: none in {}; gap {gap:.1} ns measured on {} --quick",
                KIND_NAMES[k],
                w.name(),
                c.name()
            );
            gap
        };
        out.push(Metric::new(
            format!("model.{}.gap_ns", KIND_NAMES[k]),
            "ns",
            gap,
        ));
        out.push(Metric::new(
            format!("model.{}.per_query", KIND_NAMES[k]),
            "events/query",
            measured(k) / completed,
        ));
    }
    out.push(Metric::new(
        "ps.useful_frac",
        "ratio",
        sum(&|r| r.cpu_completions) as f64 / measured(CPU_DONE),
    ));
    out.extend(exec);
    out.extend(micro.iter().cloned());
    out.extend(lattice);
    out.push(Metric::new("trace.observer_ns", "ns", observer_ns));
    out.push(Metric::new(
        "trace.overhead_pct",
        "%",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    ));
    if let Some(explained) = attrib::explained_ns_per_event(&micro, &configs, &first.runs) {
        println!("attribution: {explained:.1} of {ns_per_event:.1} ns/event explained");
        out.push(Metric::new(
            "attrib.unexplained_frac",
            "ratio",
            1.0 - explained / ns_per_event,
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Ledger: every workload, passes round-robin, one child process per pass
// ----------------------------------------------------------------------

/// The end-to-end metrics, as `(name, unit, better)`.
const END_TO_END: [(&str, &str, &str); 4] = [
    ("queries_per_ref", "1/ref", "higher"),
    ("pass_refs", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// What the ledger reads back from one child.
struct Child {
    stdout: String,
    result: Option<json::Value>,
}

fn child(w: WorkloadId, args: &Args, trace: bool) -> Child {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seconds", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let stdout = match cmd.output() {
        Ok(o) => String::from_utf8_lossy(&o.stdout).into_owned(),
        Err(e) => {
            eprintln!("perf_ledger: cannot start a pass: {e}");
            String::new()
        }
    };
    let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
    Child { stdout, result }
}

/// Adds a child's runs to `runs`; whether it printed a correct result.
fn absorb(result: Option<&json::Value>, runs: &mut RunCount) -> bool {
    let Some(r) = result else {
        return false;
    };
    let field = |k: &str| r.get(k).and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
    runs.attempted += field("attempted");
    runs.failed += field("failed");
    r.get("correct") == Some(&json::Value::Bool(true))
}

fn ledger(args: &Args) -> ExitCode {
    let mut runs = RunCount::default();
    let mut ok = true;
    // values[w][metric] over passes; fingerprints[w] and runs_of[w] over
    // passes.
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; workloads::ALL.len()];
    let mut prints = vec![Vec::new(); workloads::ALL.len()];
    let mut runs_of = vec![RunCount::default(); workloads::ALL.len()];
    for pass in 1..=PASSES {
        for (wi, w) in workloads::ALL.into_iter().enumerate() {
            eprintln!("pass {pass}/{PASSES} {}", w.name());
            let c = child(w, args, false);
            ok &= absorb(c.result.as_ref(), &mut runs_of[wi]);
            let Some(result) = c.result else {
                continue;
            };
            for (mi, (name, _, _)) in END_TO_END.iter().enumerate() {
                let v = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(json::Value::as_f64);
                match v {
                    Some(v) => values[wi][mi].push(v),
                    None => ok = false,
                }
            }
            prints[wi].extend(
                c.stdout
                    .lines()
                    .filter_map(|l| l.strip_prefix("fingerprint "))
                    .map(str::to_string),
            );
        }
    }

    println!(
        "perf_ledger — {} mode, seed shift {}, R = {} passes per workload \
         (median and quartiles; max recorded, not gated)",
        if args.quick { "quick" } else { "full" },
        args.seed,
        PASSES
    );
    println!(
        "{:16} {:14} {:>7} {:>14} {:>14} {:>14} {:>14}",
        "workload", "metric", "better", "median", "q1", "q3", "max"
    );
    let mut summary = Vec::new();
    for (wi, w) in workloads::ALL.into_iter().enumerate() {
        if prints[wi].windows(2).any(|p| p[0] != p[1]) {
            eprintln!(
                "perf_ledger: {} passes disagree: {:?}",
                w.name(),
                prints[wi]
            );
            ok = false;
        }
        for (mi, (name, unit, better)) in END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            if v.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(v);
            let max = v.iter().copied().fold(f64::MIN, f64::max);
            println!(
                "{:16} {:14} {:>7} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {unit}",
                w.name(),
                name,
                better,
                median(v),
                q1,
                q3,
                max
            );
            summary.push(Metric::new(format!("{}.{name}", w.name()), unit, median(v)));
        }
        let r = runs_of[wi];
        println!(
            "{:16} {:14} {:>7} {:>14.6} ({} of {} runs failed)",
            w.name(),
            "failed_run_frac",
            "lower",
            r.failed as f64 / r.attempted.max(1) as f64,
            r.failed,
            r.attempted
        );
        runs.attempted += r.attempted;
        runs.failed += r.failed;
    }

    if args.trace {
        for w in workloads::ALL {
            eprintln!("traced {}", w.name());
            let c = child(w, args, true);
            print!("{}", c.stdout);
            ok &= absorb(c.result.as_ref(), &mut runs);
        }
    }
    let correct = ok && runs.failed == 0;
    println!(
        "{}",
        json::result_line(correct, runs.attempted.max(1), runs.failed, &summary)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let v: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        parse_args(&v)
    }

    #[test]
    fn parses_single_workload_and_ledger_arguments() {
        let a = args("--workload live_1m --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Some(WorkloadId::Live1m));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 20.0, true, false)
        );
        let b = args("--workload paper_grid --trace 0 --quick").unwrap();
        assert!(!b.trace && b.quick);
        let c = args("--trace --quick").unwrap();
        assert!(c.trace && c.workload.is_none());
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--seconds -1",
            "--bogus",
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }
}
