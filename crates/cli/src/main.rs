//! `dqa` — command-line front end for the dynamic-query-allocation
//! simulator.
//!
//! ```text
//! dqa run     --policy lert [system flags] [--seed N] [--warmup T] [--measure T]
//! dqa compare --policies local,bnq,bnqrd,lert [system flags] [--reps N]
//! dqa sweep   --flag think --values 150,250,350 --policy lert [system flags]
//! dqa capacity --target 50 --policies local,lert [system flags]
//! dqa mva     --cpu1 0.05 --cpu2 1.0 --load 1100/0011 --class 1
//! dqa check   --sites 3 --queries 2 [--mutation M] [--window-barrier 1] [--emit-trace F] | --replay-trace F
//! dqa help
//! ```
//!
//! `dqa help` lists the system flags (defaults = the paper's base
//! configuration) and the extension-layer flag families; README.md has
//! the full tables.
//!
//! `--jobs N` (or the `DQA_JOBS` environment variable) sets how many
//! worker threads replicated runs may use; results are byte-identical for
//! every worker count, and `--jobs 1` takes the exact serial code path.

mod args;
mod commands;
mod config;

use std::process::ExitCode;

use args::Args;

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        print_help();
        return ExitCode::SUCCESS;
    }
    let command = raw.remove(0);
    let result = match command.as_str() {
        "run" => Args::parse(&raw).and_then(commands::run),
        "compare" => Args::parse(&raw).and_then(commands::compare),
        "sweep" => Args::parse(&raw).and_then(commands::sweep),
        "capacity" => Args::parse(&raw).and_then(commands::capacity),
        "mva" => Args::parse(&raw).and_then(commands::mva),
        "check" => Args::parse(&raw).and_then(commands::check),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(args::ArgError(format!(
            "unknown command `{other}` (try `dqa help`)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "dqa — dynamic query allocation in a distributed database (Carey/Livny/Lu 1984)

USAGE:
  dqa run      --policy <P> [system flags] [--seed N] [--warmup T] [--measure T]
  dqa compare  [--policies local,bnq,bnqrd,lert] [system flags] [--reps N]
  dqa sweep    --flag <name> --values a,b,c [--policy <P>] [system flags]
  dqa capacity [--target R] [--policies local,lert] [--max-mpl N] [system flags]
  dqa mva      [--cpu1 X] [--cpu2 Y] [--load 1100/0011] [--class 1|2]
  dqa check    [--sites N] [--queries N] [--crashes N] [--mutation M]
               [--window-barrier 1] [--emit-trace FILE] | --replay-trace FILE
  dqa help

POLICIES: local, bnq, bnqrd, lert, random, lert-nonet, wlc, threshold:K

SYSTEM FLAGS (defaults are the paper's base configuration):
  --sites N        number of DB sites            (6)
  --disks N        disks per site                (2)
  --mpl N          terminals per site            (20)
  --think T        mean think time               (350)
  --io-prob P      I/O-bound class probability   (0.5)
  --io-cpu T       I/O class CPU time per page   (0.05)
  --cpu-cpu T      CPU class CPU time per page   (1.0)
  --reads N        mean page reads per query     (20)
  --msg T          remote-transfer message time  (1.0)
  --detailed-msg t,p   Table-2/3 costing: msg_time per byte, page_size
  --disk-choice D  random | rr | jsq             (random)
  --estimate-error E   optimizer noise fraction  (0)
  --status-period T    load-exchange period      (0 = oracle)
  --status-msg T       status frame ring time    (0 = free)
  --relations N        relations in the catalog  (12)
  --copies K           copies per relation       (full replication)
  --migrate E,G,S      migration: check interval, min gain, state growth
  --open-rate L        open Poisson arrivals/site/unit (closed model)
  --update-frac U      update fraction of the workload   (0)
  --prop-factor F      apply work per replica, x reads   (0.5)
  --cpu-speeds a,b,..  per-site CPU speed factors (homogeneous)

EXECUTION:
  --jobs N         worker threads for replicated runs (default: DQA_JOBS
                   env var, else the detected CPU count; results are
                   byte-identical for every N, and N=1 runs serially)
  --shard-sites N  (`dqa run` only) execute the single simulation under
                   the conservative parallel-in-time executor: one
                   logical process per site, windows synchronized by the
                   ring's minimum frame-transfer lookahead, N window
                   workers. Byte-identical to the serial run; requires
                   --status-period > 0 and no deadline/admission layer

FAULT FLAGS (any one enables deterministic fault injection):
  --fault-mtbf T       mean time between site crashes    (0 = no crashes)
  --fault-mttr T       mean site repair time             (50)
  --msg-loss P         ring message loss probability     (0)
  --status-loss P      status broadcast dropout prob.    (0)
  --fault-retries N    retry budget per query            (5)
  --fault-backoff T    base retry backoff delay          (10)

EXTENSION FLAGS (full tables in README.md):
  --deadline-* --suspect-* --partition-* --admission-*
                   per-query deadlines, failure suspicion, injected
                   partitions, per-site admission control
  --live-*         time-varying arrival kernels and a sharded
                   million-user population
  --redundancy N   hedged replicate-to-n reads with first-win
                   cancellation; refinements --redundancy-prob,
                   --redundancy-load-cap, --redundancy-full-frac

EXAMPLES:
  dqa compare --think 250
  dqa run --policy lert --copies 2 --relations 24 --sites 8
  dqa sweep --flag msg --values 0.5,1,2,4 --policy lert
  dqa mva --load 2100/0011 --class 1"
    );
}
