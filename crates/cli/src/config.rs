//! Shared flag handling: building [`SystemParams`] and policies from
//! command-line flags.

use std::fmt::Display;
use std::str::FromStr;

use dqa_core::params::{
    AdmissionSpec, ArrivalSpec, DeadlineSpec, DiskChoice, FaultSpec, MessageCosting, MigrationSpec,
    RedundancySpec, SheddingMode, SuspicionSpec, SystemParams, UserSpec, Workload,
};
use dqa_core::policy::PolicyKind;

use crate::args::{ArgError, Args};

/// Parses a policy name (case-insensitive). `threshold:K` selects the
/// THRESHOLD policy with threshold `K`.
///
/// # Errors
///
/// Lists the valid names on failure.
pub fn parse_policy(name: &str) -> Result<PolicyKind, ArgError> {
    let lower = name.to_ascii_lowercase();
    if let Some(t) = lower.strip_prefix("threshold:") {
        let t = t
            .parse()
            .map_err(|e| ArgError(format!("invalid threshold in `{name}`: {e}")))?;
        return Ok(PolicyKind::Threshold(t));
    }
    match lower.as_str() {
        "local" => Ok(PolicyKind::Local),
        "bnq" => Ok(PolicyKind::Bnq),
        "bnqrd" => Ok(PolicyKind::Bnqrd),
        "lert" => Ok(PolicyKind::Lert),
        "random" => Ok(PolicyKind::Random),
        "lert-nonet" => Ok(PolicyKind::LertNoNet),
        "wlc" => Ok(PolicyKind::Wlc),
        _ => Err(ArgError(format!(
            "unknown policy `{name}` (expected local, bnq, bnqrd, lert, random, \
             lert-nonet, wlc, or threshold:K)"
        ))),
    }
}

/// Consumes the system-parameter flags shared by every simulation
/// subcommand and builds validated [`SystemParams`].
///
/// Every flag is optional and writes one field of
/// [`SystemParams::paper_base`] or of an extension spec's `Default`;
/// `--detailed-msg`, `--live-flash`, `--live-burst` and `--migrate` take
/// comma-separated tuples. An extension layer switches on with its
/// enabling flag — any fault flag, `--deadline-mean`, either suspicion
/// flag, `--admission-cap`/`--admission-queue`, `--redundancy`, any of
/// `--live-diurnal`/`--live-flash`/`--live-burst`, `--live-users`,
/// `--migrate` — and refinement flags without it are rejected. `dqa help`
/// and README.md list the flags.
///
/// # Errors
///
/// Propagates parse failures and parameter-validation failures with the
/// offending flag named.
pub fn take_params(args: &mut Args) -> Result<SystemParams, ArgError> {
    let mut p = SystemParams::paper_base();
    set(args, "sites", &mut p.num_sites)?;
    set(args, "disks", &mut p.num_disks)?;
    set(args, "mpl", &mut p.mpl)?;
    set(args, "think", &mut p.think_time)?;
    if set(args, "io-prob", &mut p.classes[0].probability)? {
        p.classes[1].probability = 1.0 - p.classes[0].probability;
    }
    set(args, "io-cpu", &mut p.classes[0].page_cpu_time)?;
    set(args, "cpu-cpu", &mut p.classes[1].page_cpu_time)?;
    set(args, "msg", &mut p.msg_length)?;
    if let Some(reads) = args.take_opt::<f64>("reads")? {
        for class in &mut p.classes {
            class.num_reads = reads;
        }
    }
    if let Some(choice) = args.take("disk-choice") {
        p.disk_choice = match choice.as_str() {
            "random" => DiskChoice::Random,
            "rr" | "round-robin" => DiskChoice::RoundRobin,
            "jsq" | "shortest-queue" => DiskChoice::ShortestQueue,
            other => {
                return Err(ArgError(format!(
                    "unknown disk choice `{other}` (expected random, rr, jsq)"
                )))
            }
        };
    }
    set(args, "estimate-error", &mut p.estimate_error)?;
    set(args, "status-period", &mut p.status_period)?;
    set(args, "status-msg", &mut p.status_msg_length)?;
    set(args, "relations", &mut p.num_relations)?;
    p.copies = args.take_opt("copies")?;
    if let Some([msg_time, page_size]) = tuple(args, "detailed-msg", "msg_time,page_size")? {
        p.message_costing = MessageCosting::Detailed {
            msg_time: part(&msg_time, "msg_time")?,
            page_size: part(&page_size, "page_size")?,
        };
    }
    if let Some(arrival_rate) = args.take_opt("open-rate")? {
        p.workload = Workload::Open { arrival_rate };
    }
    set(args, "update-frac", &mut p.update_fraction)?;
    set(args, "prop-factor", &mut p.propagation_factor)?;
    if let Some(speeds) = args.take("cpu-speeds") {
        let speeds = speeds.split(',').map(|s| part(s, "--cpu-speeds list"));
        p.cpu_speeds = Some(speeds.collect::<Result<_, _>>()?);
    }
    // Fault-injection flags: any one of them switches the layer on.
    let mut faults = FaultSpec::default();
    let mut faulty = set(args, "fault-mtbf", &mut faults.mtbf)?;
    faulty |= set(args, "fault-mttr", &mut faults.mttr)?;
    faulty |= set(args, "msg-loss", &mut faults.msg_loss)?;
    faulty |= set(args, "status-loss", &mut faults.status_loss)?;
    faulty |= set(args, "fault-retries", &mut faults.max_retries)?;
    faulty |= set(args, "fault-backoff", &mut faults.backoff_base)?;
    let partition_at = set(args, "partition-at", &mut faults.partition_at)?;
    faulty |= partition_at;
    faulty |= set(args, "partition-for", &mut faults.partition_for)?;
    faulty |= set(args, "partition-groups", &mut faults.partition_groups)?;
    if (faults.partition_for > 0.0 || partition_at) && faults.partition_groups < 2 {
        return Err(ArgError(
            "an injected partition needs --partition-groups of at least 2 \
             alongside --partition-at/--partition-for"
                .into(),
        ));
    }
    if faults.partition_groups >= 2 && !faults.has_partition() {
        return Err(ArgError(
            "--partition-groups does nothing without a positive --partition-for \
             (the partition's duration)"
                .into(),
        ));
    }
    if faulty {
        p.faults = Some(faults);
    }
    // Deadline flags: --deadline-mean switches the layer on; the others
    // refine it and are meaningless (and rejected) without it.
    let mut deadlines = DeadlineSpec::default();
    let mean = set(args, "deadline-mean", &mut deadlines.mean)?;
    let mut refined = set(args, "deadline-floor", &mut deadlines.floor)?;
    refined |= set(args, "deadline-retries", &mut deadlines.max_reallocations)?;
    refined |= set(args, "deadline-backoff", &mut deadlines.backoff_base)?;
    if !deadlines.is_active() && refined {
        let given = if mean {
            "--deadline-mean 0 disables deadlines"
        } else {
            "no --deadline-mean was given"
        };
        return Err(ArgError(format!(
            "--deadline-floor/--deadline-retries/--deadline-backoff have no effect \
             because {given}; set --deadline-mean to a positive value to enable \
             deadlines, or drop the other deadline flags"
        )));
    }
    if mean {
        p.deadlines = Some(deadlines);
    }
    // Suspicion flags: either one switches the detector on.
    let mut suspicion = SuspicionSpec::default();
    let mut suspects = set(args, "suspect-after", &mut suspicion.threshold)?;
    suspects |= set(args, "suspect-probation", &mut suspicion.probation)?;
    if suspects {
        p.suspicion = Some(suspicion);
    }
    // Admission flags: a cap or a queue limit switches the layer on; the
    // shedding mode and retry knobs refine it.
    let mut admission = AdmissionSpec {
        mpl_cap: args.take_opt("admission-cap")?,
        queue_limit: args.take_opt("admission-queue")?,
        ..AdmissionSpec::default()
    };
    let mode = args.take("admission-mode");
    let mut refined = set(args, "admission-retries", &mut admission.max_retries)?;
    refined |= set(args, "admission-backoff", &mut admission.backoff_base)?;
    if admission.mpl_cap == Some(0) {
        return Err(ArgError(
            "--admission-cap must be at least 1 (a cap of 0 would admit nothing); \
             omit the flag to disable the MPL cap"
                .into(),
        ));
    }
    if admission.queue_limit == Some(0) {
        return Err(ArgError(
            "--admission-queue must be at least 1 (a limit of 0 would admit \
             nothing); omit the flag to disable the queue limit"
                .into(),
        ));
    }
    if admission.is_active() {
        admission.mode = match mode.as_deref() {
            None => admission.mode,
            Some("reject") => SheddingMode::RejectRetry,
            Some("redirect") => SheddingMode::Redirect,
            Some("drop") => SheddingMode::Drop,
            Some(other) => {
                return Err(ArgError(format!(
                    "unknown admission mode `{other}` (expected reject, redirect, drop)"
                )))
            }
        };
        p.admission = Some(admission);
    } else if mode.is_some() || refined {
        return Err(ArgError(
            "--admission-mode/--admission-retries/--admission-backoff have no \
             effect without --admission-cap or --admission-queue; add a cap or \
             a queue limit to enable admission control"
                .into(),
        ));
    }
    // Redundancy flags: --redundancy (the replication level n) switches
    // hedged dispatch on at n >= 2; the refinements tune the hedge coin
    // and the load-adaptive controller and are meaningless (and
    // rejected) without it. A bare `--redundancy 1` keeps an inert spec
    // in the params — useful for byte-identity checks, since an inert
    // spec draws nothing from the RNG.
    let mut redundancy = RedundancySpec::default();
    let level = set(args, "redundancy", &mut redundancy.max_level)?;
    let mut refined = set(args, "redundancy-prob", &mut redundancy.hedge_prob)?;
    refined |= set(args, "redundancy-load-cap", &mut redundancy.load_threshold)?;
    refined |= set(args, "redundancy-full-frac", &mut redundancy.full_threshold)?;
    if redundancy.max_level < 2 && refined {
        let given = if level {
            "--redundancy below 2 disables hedging"
        } else {
            "no --redundancy was given"
        };
        return Err(ArgError(format!(
            "--redundancy-prob/--redundancy-load-cap/--redundancy-full-frac have \
             no effect because {given}; set --redundancy to at least 2 to enable \
             hedged dispatch, or drop the refinement flags"
        )));
    }
    if level {
        p.redundancy = Some(redundancy);
    }
    // Live-service arrival flags: any of --live-diurnal, --live-flash,
    // --live-burst switches the time-varying arrival layer on.
    let mut arrivals = ArrivalSpec::default();
    let mut modulated = set(args, "live-diurnal", &mut arrivals.diurnal_amplitude)?;
    if set(args, "live-period", &mut arrivals.diurnal_period)? && !modulated {
        return Err(ArgError(
            "--live-period has no effect without --live-diurnal (the diurnal \
             amplitude); add --live-diurnal or drop --live-period"
                .into(),
        ));
    }
    if let Some([at, duration, mult]) = tuple(args, "live-flash", "at,for,mult")? {
        arrivals.flash_at = part(&at, "flash start")?;
        arrivals.flash_for = part(&duration, "flash duration")?;
        arrivals.flash_multiplier = part(&mult, "flash multiplier")?;
        modulated = true;
    }
    if let Some([mult, on, off]) = tuple(args, "live-burst", "mult,on,off")? {
        arrivals.burst_multiplier = part(&mult, "burst multiplier")?;
        arrivals.burst_on_mean = part(&on, "burst on-dwell")?;
        arrivals.burst_off_mean = part(&off, "burst off-dwell")?;
        modulated = true;
    }
    if modulated {
        p.arrivals = Some(arrivals);
    }
    // User-population flags: --live-users switches the population on; the
    // others refine it and are meaningless without it.
    let mut users = UserSpec::default();
    let counted = set(args, "live-users", &mut users.total_users)?;
    let mut refined = set(args, "live-zipf", &mut users.zipf_exponent)?;
    refined |= set(args, "live-session", &mut users.session_mean)?;
    refined |= set(args, "live-affinity", &mut users.class_affinity)?;
    if !users.is_active() && refined {
        let given = if counted {
            "--live-users 0 disables the population"
        } else {
            "no --live-users was given"
        };
        return Err(ArgError(format!(
            "--live-zipf/--live-session/--live-affinity have no effect because \
             {given}; set --live-users to a positive count to enable the user \
             population, or drop the other live-user flags"
        )));
    }
    if users.is_active() {
        p.users = Some(users);
    }
    if let Some([every, gain, growth]) = tuple(args, "migrate", "every,gain,growth")? {
        p.migration = Some(MigrationSpec {
            check_every_reads: part(&every, "migrate interval")?,
            min_gain: part(&gain, "migrate gain")?,
            state_growth: part(&growth, "migrate growth")?,
        });
    }
    p.validate().map_err(|e| ArgError(e.to_string()))?;
    // A bare `--deadline-mean 0` is the legal "off" point: validated like
    // any other mean, then dropped.
    p.deadlines = p.deadlines.filter(DeadlineSpec::is_active);
    Ok(p)
}

/// Parses `--{flag}` onto `field` when it is given, and reports whether it
/// was.
fn set<T: FromStr>(args: &mut Args, flag: &str, field: &mut T) -> Result<bool, ArgError>
where
    T::Err: Display,
{
    match args.take_opt(flag)? {
        Some(value) => {
            *field = value;
            Ok(true)
        }
        None => Ok(false),
    }
}

/// Splits the comma-separated value of `--{flag}` into exactly `N` parts;
/// `shape` names them in the error.
fn tuple<const N: usize>(
    args: &mut Args,
    flag: &str,
    shape: &str,
) -> Result<Option<[String; N]>, ArgError> {
    let Some(raw) = args.take(flag) else {
        return Ok(None);
    };
    let parts: Vec<String> = raw.split(',').map(str::to_owned).collect();
    parts
        .try_into()
        .map(Some)
        .map_err(|_| ArgError(format!("--{flag} expects `{shape}`, got `{raw}`")))
}

/// Parses one part of a [`tuple`] flag, naming it `what` in the error.
fn part<T: FromStr>(raw: &str, what: &str) -> Result<T, ArgError>
where
    T::Err: Display,
{
    raw.parse()
        .map_err(|e| ArgError(format!("invalid {what}: {e}")))
}

/// Consumes the `--jobs` flag shared by every simulation subcommand.
///
/// Returns the requested worker count without applying it, so that unit
/// tests can validate parsing without mutating the process-wide setting;
/// callers pass the value to [`dqa_core::parallel::set_jobs`]. When the
/// flag is absent the resolution order of [`dqa_core::parallel::jobs`]
/// applies (the `DQA_JOBS` environment variable, then the detected
/// parallelism), and `--jobs 1` takes the exact serial code path.
///
/// # Errors
///
/// Rejects `--jobs 0` and non-numeric values.
pub fn take_jobs(args: &mut Args) -> Result<Option<usize>, ArgError> {
    match args.take_opt::<usize>("jobs")? {
        Some(0) => Err(ArgError("--jobs must be at least 1".into())),
        other => Ok(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| (*x).to_owned()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn policy_names_parse() {
        assert_eq!(parse_policy("LERT").unwrap(), PolicyKind::Lert);
        assert_eq!(parse_policy("local").unwrap(), PolicyKind::Local);
        assert_eq!(
            parse_policy("threshold:4").unwrap(),
            PolicyKind::Threshold(4)
        );
        assert!(parse_policy("nope").is_err());
    }

    #[test]
    fn default_params_are_paper_base() {
        let mut a = args(&[]);
        let p = take_params(&mut a).unwrap();
        assert_eq!(p, SystemParams::paper_base());
    }

    #[test]
    fn flags_override_fields() {
        let mut a = args(&[
            "--sites",
            "8",
            "--mpl",
            "25",
            "--think",
            "200",
            "--io-prob",
            "0.3",
            "--copies",
            "2",
            "--reads",
            "40",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(p.num_sites, 8);
        assert_eq!(p.mpl, 25);
        assert_eq!(p.think_time, 200.0);
        assert_eq!(p.classes[0].probability, 0.3);
        assert_eq!(p.copies, Some(2));
        assert_eq!(p.classes[0].num_reads, 40.0);
        assert_eq!(p.classes[1].num_reads, 40.0);
    }

    #[test]
    fn update_and_speed_flags_parse() {
        let mut a = args(&[
            "--update-frac",
            "0.2",
            "--prop-factor",
            "0.25",
            "--cpu-speeds",
            "2,1,1,1,0.5,0.5",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(p.update_fraction, 0.2);
        assert_eq!(p.propagation_factor, 0.25);
        assert_eq!(
            p.cpu_speeds.as_deref(),
            Some(&[2.0, 1.0, 1.0, 1.0, 0.5, 0.5][..])
        );
    }

    #[test]
    fn migrate_flag_parses_triple() {
        let mut a = args(&["--migrate", "5,1.5,0.25"]);
        let p = take_params(&mut a).unwrap();
        let m = p.migration.unwrap();
        assert_eq!(m.check_every_reads, 5);
        assert_eq!(m.min_gain, 1.5);
        assert_eq!(m.state_growth, 0.25);
    }

    #[test]
    fn no_fault_flags_leaves_faults_disabled() {
        let mut a = args(&[]);
        let p = take_params(&mut a).unwrap();
        assert_eq!(p.faults, None);
    }

    #[test]
    fn fault_flags_fill_unspecified_fields_with_defaults() {
        let mut a = args(&["--fault-mtbf", "500", "--msg-loss", "0.02"]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let spec = p.faults.expect("fault layer should be enabled");
        assert_eq!(spec.mtbf, 500.0);
        assert_eq!(spec.msg_loss, 0.02);
        let defaults = FaultSpec::default();
        assert_eq!(spec.mttr, defaults.mttr);
        assert_eq!(spec.status_loss, defaults.status_loss);
        assert_eq!(spec.max_retries, defaults.max_retries);
        assert_eq!(spec.backoff_base, defaults.backoff_base);
        assert!(spec.is_active());
    }

    #[test]
    fn all_fault_flags_parse() {
        let mut a = args(&[
            "--fault-mtbf",
            "800",
            "--fault-mttr",
            "40",
            "--msg-loss",
            "0.01",
            "--status-loss",
            "0.1",
            "--fault-retries",
            "3",
            "--fault-backoff",
            "20",
            "--partition-at",
            "1000",
            "--partition-for",
            "250",
            "--partition-groups",
            "2",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(
            p.faults,
            Some(FaultSpec {
                mtbf: 800.0,
                mttr: 40.0,
                msg_loss: 0.01,
                status_loss: 0.1,
                max_retries: 3,
                backoff_base: 20.0,
                partition_at: 1000.0,
                partition_for: 250.0,
                partition_groups: 2,
            })
        );
    }

    #[test]
    fn invalid_fault_flags_are_reported() {
        // Probability outside [0, 1] fails parameter validation.
        let mut a = args(&["--msg-loss", "1.5"]);
        assert!(take_params(&mut a).is_err());
        // A zero repair time means instant repair and is now legal.
        let mut a = args(&["--fault-mtbf", "500", "--fault-mttr", "0"]);
        let p = take_params(&mut a).unwrap();
        assert_eq!(p.faults.unwrap().mttr, 0.0);
        // Non-numeric value is a parse error.
        let mut a = args(&["--fault-backoff", "soon"]);
        assert!(take_params(&mut a).is_err());
    }

    #[test]
    fn partition_flags_parse_and_conflict_checks_fire() {
        // A duration without a group count is an actionable error, not a
        // silent no-op partition.
        let mut a = args(&["--partition-for", "200"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("--partition-groups"), "{err}");
        // Groups without a duration is equally inert and equally rejected.
        let mut a = args(&["--partition-groups", "2"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("--partition-for"), "{err}");
        // A single group is not a partition.
        let mut a = args(&["--partition-for", "200", "--partition-groups", "1"]);
        assert!(take_params(&mut a).is_err());
        // The complete triple enables the fault layer with a partition.
        let mut a = args(&[
            "--partition-at",
            "500",
            "--partition-for",
            "200",
            "--partition-groups",
            "3",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let f = p.faults.expect("partition flags enable the fault layer");
        assert!(f.has_partition());
        assert_eq!(f.partition_at, 500.0);
    }

    #[test]
    fn deadline_flags_parse() {
        let mut a = args(&[
            "--deadline-mean",
            "400",
            "--deadline-floor",
            "50",
            "--deadline-retries",
            "3",
            "--deadline-backoff",
            "8",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let d = p.deadlines.expect("deadline layer should be enabled");
        assert!(d.is_active());
        assert_eq!(d.mean, 400.0);
        assert_eq!(d.floor, 50.0);
        assert_eq!(d.max_reallocations, 3);
        assert_eq!(d.backoff_base, 8.0);
    }

    #[test]
    fn conflicting_deadline_flags_are_reported() {
        // Retries with deadlines explicitly disabled is a configuration
        // contradiction, not something to silently ignore.
        let mut a = args(&["--deadline-mean", "0", "--deadline-retries", "2"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("--deadline-mean 0"), "{err}");
        // Same for refinement flags with no mean at all.
        let mut a = args(&["--deadline-floor", "10"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("no --deadline-mean"), "{err}");
        // A bare zero mean (deadlines off, nothing else) stays legal so
        // sweeps can include an "off" point.
        let mut a = args(&["--deadline-mean", "0"]);
        let p = take_params(&mut a).unwrap();
        assert_eq!(p.deadlines, None);
    }

    #[test]
    fn negative_or_nan_deadline_mean_is_reported() {
        // Only a zero mean is the "off" point; any other mean reaches
        // validation instead of silently running without deadlines.
        for mean in ["-5", "NaN"] {
            let mut a = args(&["--deadline-mean", mean]);
            let err = take_params(&mut a).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("`deadline mean` must be positive, got {mean}")
            );
        }
    }

    #[test]
    fn suspicion_flags_parse_and_require_status_broadcast() {
        // The detector rides on costed status broadcasts; without one the
        // parameter validation names the missing pieces.
        let mut a = args(&["--suspect-after", "4"]);
        assert!(take_params(&mut a).is_err());
        let mut a = args(&[
            "--suspect-after",
            "4",
            "--suspect-probation",
            "3",
            "--status-period",
            "50",
            "--status-msg",
            "0.5",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let s = p.suspicion.expect("suspicion layer should be enabled");
        assert_eq!(s.threshold, 4);
        assert_eq!(s.probation, 3);
    }

    #[test]
    fn admission_flags_parse() {
        let mut a = args(&[
            "--admission-cap",
            "12",
            "--admission-mode",
            "redirect",
            "--admission-retries",
            "2",
            "--admission-backoff",
            "15",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let spec = p.admission.expect("admission layer should be enabled");
        assert!(spec.is_active());
        assert_eq!(spec.mpl_cap, Some(12));
        assert_eq!(spec.queue_limit, None);
        assert_eq!(spec.mode, SheddingMode::Redirect);
        assert_eq!(spec.max_retries, 2);
        assert_eq!(spec.backoff_base, 15.0);
    }

    #[test]
    fn invalid_admission_flags_are_reported() {
        // A cap of zero would admit nothing — rejected with advice.
        let mut a = args(&["--admission-cap", "0"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        let mut a = args(&["--admission-queue", "0"]);
        assert!(take_params(&mut a).is_err());
        // A shedding mode without a cap or limit does nothing.
        let mut a = args(&["--admission-mode", "drop"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("--admission-cap"), "{err}");
        // Unknown mode names are listed.
        let mut a = args(&["--admission-cap", "10", "--admission-mode", "sideways"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("redirect"), "{err}");
    }

    #[test]
    fn redundancy_flags_parse() {
        let mut a = args(&[
            "--redundancy",
            "3",
            "--redundancy-prob",
            "0.5",
            "--redundancy-load-cap",
            "8",
            "--redundancy-full-frac",
            "0.25",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let r = p.redundancy.expect("redundancy layer should be enabled");
        assert!(r.is_active());
        assert_eq!(r.max_level, 3);
        assert_eq!(r.hedge_prob, 0.5);
        assert_eq!(r.load_threshold, 8.0);
        assert_eq!(r.full_threshold, 0.25);
        // Unspecified refinements take the spec defaults (hedge every
        // eligible query, no load throttle override).
        let mut a = args(&["--redundancy", "2"]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let defaults = RedundancySpec::default();
        let r = p.redundancy.unwrap();
        assert_eq!(r.max_level, 2);
        assert_eq!(r.hedge_prob, defaults.hedge_prob);
        assert_eq!(r.load_threshold, defaults.load_threshold);
        assert_eq!(r.full_threshold, defaults.full_threshold);
    }

    #[test]
    fn conflicting_redundancy_flags_are_reported() {
        // Refinements without the enabling level are a contradiction.
        let mut a = args(&["--redundancy-prob", "0.5"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("no --redundancy"), "{err}");
        // Same with hedging explicitly below the active threshold.
        let mut a = args(&["--redundancy", "1", "--redundancy-load-cap", "5"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("below 2"), "{err}");
        // A bare inert level stays legal (and keeps the inert spec in
        // the params) so sweeps and byte-identity checks get an "off"
        // point that exercises the spec plumbing.
        let mut a = args(&["--redundancy", "1"]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let r = p.redundancy.expect("inert spec is kept");
        assert!(!r.is_active());
    }

    #[test]
    fn reads_flag_preserves_resilience_config() {
        // --reads writes every class's read count and nothing else —
        // resilience flags consumed on either side of it have to survive
        // into the final params.
        let mut a = args(&[
            "--reads",
            "40",
            "--deadline-mean",
            "300",
            "--admission-cap",
            "15",
            "--redundancy",
            "2",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(p.classes[0].num_reads, 40.0);
        assert!(p.deadlines.unwrap().is_active());
        assert_eq!(p.admission.unwrap().mpl_cap, Some(15));
        assert!(p.redundancy.unwrap().is_active());
    }

    #[test]
    fn reads_flag_preserves_fault_config() {
        // Fault flags are consumed after --reads; both must reach the
        // final params.
        let mut a = args(&["--reads", "40", "--fault-mtbf", "900"]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(p.classes[0].num_reads, 40.0);
        assert_eq!(p.faults.unwrap().mtbf, 900.0);
    }

    #[test]
    fn live_arrival_flags_parse() {
        let mut a = args(&[
            "--open-rate",
            "0.05",
            "--live-diurnal",
            "0.4",
            "--live-period",
            "8000",
            "--live-flash",
            "1000,500,3",
            "--live-burst",
            "2,150,1500",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let spec = p.arrivals.expect("live flags enable the arrival layer");
        assert!(spec.is_active());
        assert_eq!(spec.diurnal_amplitude, 0.4);
        assert_eq!(spec.diurnal_period, 8000.0);
        assert_eq!(spec.flash_at, 1000.0);
        assert_eq!(spec.flash_for, 500.0);
        assert_eq!(spec.flash_multiplier, 3.0);
        assert_eq!(spec.burst_multiplier, 2.0);
        assert_eq!(spec.burst_on_mean, 150.0);
        assert_eq!(spec.burst_off_mean, 1500.0);
    }

    #[test]
    fn conflicting_live_arrival_flags_are_reported() {
        // A period without an amplitude modulates nothing.
        let mut a = args(&["--open-rate", "0.05", "--live-period", "5000"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("--live-diurnal"), "{err}");
        // Malformed triples name the expected shape.
        let mut a = args(&["--open-rate", "0.05", "--live-flash", "1000,500"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("at,for,mult"), "{err}");
        let mut a = args(&["--open-rate", "0.05", "--live-burst", "2"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("mult,on,off"), "{err}");
        // The arrival layer rides on open arrivals; parameter validation
        // rejects it under the closed workload.
        let mut a = args(&["--live-diurnal", "0.3"]);
        assert!(take_params(&mut a).is_err());
    }

    #[test]
    fn live_user_flags_parse() {
        let mut a = args(&[
            "--open-rate",
            "0.05",
            "--live-users",
            "1000000",
            "--live-zipf",
            "1.1",
            "--live-session",
            "25",
            "--live-affinity",
            "0.9",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let spec = p.users.expect("--live-users enables the population");
        assert!(spec.is_active());
        assert_eq!(spec.total_users, 1_000_000);
        assert_eq!(spec.zipf_exponent, 1.1);
        assert_eq!(spec.session_mean, 25.0);
        assert_eq!(spec.class_affinity, 0.9);
        // Unspecified refinements take the spec defaults.
        let mut a = args(&["--open-rate", "0.05", "--live-users", "500"]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let defaults = UserSpec::default();
        let spec = p.users.unwrap();
        assert_eq!(spec.total_users, 500);
        assert_eq!(spec.zipf_exponent, defaults.zipf_exponent);
        assert_eq!(spec.session_mean, defaults.session_mean);
        assert_eq!(spec.class_affinity, defaults.class_affinity);
    }

    #[test]
    fn conflicting_live_user_flags_are_reported() {
        // Refinements without the enabling count are a contradiction.
        let mut a = args(&["--open-rate", "0.05", "--live-zipf", "1.1"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("no --live-users"), "{err}");
        // Same with the population explicitly disabled.
        let mut a = args(&[
            "--open-rate",
            "0.05",
            "--live-users",
            "0",
            "--live-session",
            "10",
        ]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("--live-users 0"), "{err}");
        // A bare zero count (population off, nothing else) stays legal so
        // sweeps can include an "off" point.
        let mut a = args(&["--open-rate", "0.05", "--live-users", "0"]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(p.users, None);
    }

    #[test]
    fn reads_flag_preserves_live_service_config() {
        // Live-service flags given before --reads must survive it.
        let mut a = args(&[
            "--open-rate",
            "0.05",
            "--live-diurnal",
            "0.3",
            "--live-users",
            "10000",
            "--reads",
            "40",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(p.classes[0].num_reads, 40.0);
        assert_eq!(p.arrivals.unwrap().diurnal_amplitude, 0.3);
        assert_eq!(p.users.unwrap().total_users, 10_000);
    }

    #[test]
    fn jobs_flag_parses() {
        let mut a = args(&["--jobs", "4"]);
        assert_eq!(take_jobs(&mut a).unwrap(), Some(4));
        a.finish().unwrap();
    }

    #[test]
    fn absent_jobs_flag_is_none() {
        let mut a = args(&[]);
        assert_eq!(take_jobs(&mut a).unwrap(), None);
    }

    #[test]
    fn invalid_jobs_flags_are_reported() {
        // Zero workers is meaningless; the pool needs at least one.
        let mut a = args(&["--jobs", "0"]);
        assert!(take_jobs(&mut a).is_err());
        // Non-numeric value is a parse error.
        let mut a = args(&["--jobs", "many"]);
        assert!(take_jobs(&mut a).is_err());
        // Negative values do not parse as usize.
        let mut a = args(&["--jobs", "-2"]);
        assert!(take_jobs(&mut a).is_err());
    }

    #[test]
    fn invalid_params_are_reported() {
        let mut a = args(&["--sites", "0"]);
        assert!(take_params(&mut a).is_err());
    }

    #[test]
    fn disk_choice_parses() {
        let mut a = args(&["--disk-choice", "jsq"]);
        let p = take_params(&mut a).unwrap();
        assert_eq!(p.disk_choice, DiskChoice::ShortestQueue);
        let mut a = args(&["--disk-choice", "sideways"]);
        assert!(take_params(&mut a).is_err());
    }
}
