//! Golden outputs of the `dqa` binary.
//!
//! Every probe in `tests/data/golden_cli.txt` runs the built binary and
//! must reproduce the recorded stdout, stderr and exit code byte for
//! byte. The probes cover every conflict and parse error of the system
//! flags, the `--jobs`/`--shard-sites` checks, argument-syntax errors,
//! short runs that fire every extension layer, the other subcommands and
//! `dqa help`.
//!
//! A mismatch means the CLI's output changed. Do not re-record the file
//! to make it pass unless the change of output is the point of the
//! change.

use std::process::Command;

const GOLDEN: &str = include_str!("data/golden_cli.txt");

/// One recorded invocation.
struct Probe {
    args: Vec<&'static str>,
    exit: i32,
    stdout: &'static str,
    stderr: &'static str,
}

/// Returns the text between `marker` and the next `>>> ` line of `block`,
/// and the rest of `block` after that text.
fn section(block: &'static str, marker: &str) -> (&'static str, &'static str) {
    let rest = block
        .strip_prefix(marker)
        .unwrap_or_else(|| panic!("expected `{marker}` in golden block:\n{block}"));
    let end = if rest.starts_with(">>> ") {
        0
    } else {
        rest.find("\n>>> ").map_or(rest.len(), |i| i + 1)
    };
    (&rest[..end], &rest[end..])
}

fn probes() -> Vec<Probe> {
    let first = GOLDEN.find("\n>>> dqa").expect("golden file holds probes") + 1;
    let mut probes = Vec::new();
    let mut rest = &GOLDEN[first..];
    while !rest.is_empty() {
        let (command, after) = section(rest, ">>> dqa");
        let (exit, after) = section(after, ">>> exit ");
        let (stdout, after) = section(after, ">>> stdout\n");
        let (stderr, after) = section(after, ">>> stderr\n");
        probes.push(Probe {
            args: command.split_whitespace().collect(),
            exit: exit.trim().parse().expect("numeric exit code"),
            stdout,
            stderr,
        });
        rest = after;
    }
    probes
}

/// Runs the `dqa` binary with `args` and no `DQA_*` environment.
fn dqa(args: &[&str]) -> (i32, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dqa"));
    cmd.args(args);
    for (key, _) in std::env::vars() {
        if key.starts_with("DQA_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd.output().expect("the dqa binary runs");
    (
        out.status.code().expect("dqa exits with a code"),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

#[test]
fn every_probe_reproduces_its_recorded_output() {
    let probes = probes();
    assert!(probes.len() >= 150, "only {} probes parsed", probes.len());
    let mut mismatches = Vec::new();
    for p in &probes {
        let (exit, stdout, stderr) = dqa(&p.args);
        if (exit, stdout.as_str(), stderr.as_str()) != (p.exit, p.stdout, p.stderr) {
            mismatches.push(format!(
                "dqa {}\n  exit {exit} (recorded {})\n  stdout:\n{stdout}  recorded:\n{}  \
                 stderr:\n{stderr}  recorded:\n{}",
                p.args.join(" "),
                p.exit,
                p.stdout,
                p.stderr
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} probes changed:\n{}",
        mismatches.len(),
        probes.len(),
        mismatches.join("\n")
    );
}

#[test]
fn inert_layer_flags_print_the_baseline_report() {
    let base = [
        "run",
        "--policy",
        "lert",
        "--sites",
        "4",
        "--mpl",
        "5",
        "--think",
        "100",
        "--warmup",
        "200",
        "--measure",
        "3000",
    ];
    let (exit, report, _) = dqa(&base);
    assert_eq!(exit, 0);
    for inert in [["--fault-backoff", "25"], ["--redundancy", "1"]] {
        let args: Vec<&str> = base.iter().chain(&inert).copied().collect();
        assert_eq!(dqa(&args), (0, report.clone(), String::new()), "{inert:?}");
    }
}
