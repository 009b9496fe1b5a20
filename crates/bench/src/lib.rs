//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation section.
//!
//! Each figure has a driver function in [`figures`] returning structured
//! results and a binary (`fig3`, `fig5`, …, `fig12`, `table1`,
//! `shadow_sampling`, `cost_model`, plus the ablations) that prints the
//! same rows/series the paper plots. The drivers are also exercised at
//! reduced scale by the Criterion benches so `cargo bench` touches every
//! figure path.
//!
//! # Scaling
//!
//! The paper simulates 200 M cycles per experiment on a farm; the
//! defaults here run each figure in minutes on a laptop. Two environment
//! variables trade fidelity for wall-clock time (a malformed or zero
//! value is an error, see [`parse_flags`]):
//!
//! - `NUCA_BENCH_SCALE` — percentage applied to every simulation phase
//!   (default 100; e.g. `25` runs quarter-length windows).
//! - `NUCA_BENCH_MIXES` — number of random 4-app mixes per figure
//!   (default 10).
//!
//! Independent simulation cells run on worker threads (see
//! `simcore::parallel`); every figure binary accepts `--jobs N` on its
//! command line (or `NUCA_BENCH_JOBS=N`; `0` = one per core, the
//! default) and `--time-sample D:G` (or `NUCA_BENCH_TIME_SAMPLE`).
//! Results are bit-identical for every jobs value. A malformed value
//! exits 2 with a message (see [`parse_flags`]).
//!
//! Every binary also accepts `--trace <path>` and `--metrics-out <path>`
//! (or the `TRACE` / `METRICS_OUT` environment variables) to export the
//! telemetry of every simulation cell — see [`trace_out`] and
//! README.md §Observability.

pub mod figures;
pub mod json;
pub mod report;
pub mod trace_out;

use nuca_core::experiment::{parse_time_sample, ExperimentConfig};
use trace_out::TelemetryArgs;

/// Reads everything a figure binary takes from its command line and
/// environment: the telemetry targets, the experiment configuration
/// (see [`parse_flags`]) and the per-figure mix count.
///
/// # Errors
///
/// A message naming the flag or variable when any value is missing or
/// malformed. Figure binaries print it and exit 2 instead of silently
/// running a different experiment.
pub fn setup() -> Result<(TelemetryArgs, ExperimentConfig, usize), String> {
    let flags = parse_flags(std::env::args().skip(1), |k| std::env::var(k).ok())?;
    let exp = ExperimentConfig::default()
        .scaled(flags.scale, 100)
        .with_jobs(flags.jobs)
        .with_time_sample(flags.time_sample);
    Ok((TelemetryArgs::parse()?, exp, flags.mixes))
}

/// Execution and scaling settings shared by every figure binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchFlags {
    /// Worker threads for simulation grids (`0` = one per available
    /// core).
    pub jobs: usize,
    /// Time-sampling schedule `(detail, gap)`; `None` simulates every
    /// cycle in detail.
    pub time_sample: Option<(u64, u64)>,
    /// Percentage applied to every simulation phase (100 = full scale).
    pub scale: u64,
    /// Random 4-app mixes per figure.
    pub mixes: usize,
}

/// Parses the shared figure-binary settings from `args` (without
/// `argv[0]`), with `env` looking up environment variables:
///
/// - `--jobs N` / `--jobs=N` beats `NUCA_BENCH_JOBS`, which beats
///   "auto" (`0`, one worker per available core);
/// - `--time-sample D:G` / `--time-sample=D:G` (D detailed cycles
///   alternating with G functionally warmed cycles, read by
///   [`parse_time_sample`]) beats `NUCA_BENCH_TIME_SAMPLE`; absent both,
///   every cycle is simulated in detail. A zero gap (`D:0`) is
///   byte-identical to no time sampling;
/// - `NUCA_BENCH_SCALE` (percent, default 100) and `NUCA_BENCH_MIXES`
///   (default 10) must be positive integers when set.
///
/// Other arguments belong to the binary (e.g. `--trace`) and are
/// skipped.
///
/// # Errors
///
/// A message naming the flag or variable when a value is missing or
/// malformed — including `0:G`, which has no detailed cycles to measure
/// IPC from.
pub fn parse_flags(
    args: impl IntoIterator<Item = String>,
    env: impl Fn(&str) -> Option<String>,
) -> Result<BenchFlags, String> {
    fn count(what: &str, v: &str, min: u64) -> Result<u64, String> {
        v.trim()
            .parse()
            .ok()
            .filter(|&n| n >= min)
            .ok_or_else(|| format!("{what} wants an integer >= {min} (got {v:?})"))
    }
    fn schedule(what: &str, v: &str) -> Result<(u64, u64), String> {
        parse_time_sample(v).map_err(|e| format!("{what}: {}", e.message()))
    }
    let mut jobs = None;
    let mut time_sample = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        if arg == "--jobs" {
            jobs = Some(count("--jobs", &value("--jobs")?, 0)?);
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            jobs = Some(count("--jobs", v, 0)?);
        } else if arg == "--time-sample" {
            time_sample = Some(schedule("--time-sample", &value("--time-sample")?)?);
        } else if let Some(v) = arg.strip_prefix("--time-sample=") {
            time_sample = Some(schedule("--time-sample", v)?);
        }
    }
    let from_env = |key: &str, min: u64| env(key).map(|v| count(key, &v, min)).transpose();
    if jobs.is_none() {
        jobs = from_env("NUCA_BENCH_JOBS", 0)?;
    }
    if time_sample.is_none() {
        time_sample = env("NUCA_BENCH_TIME_SAMPLE")
            .map(|v| schedule("NUCA_BENCH_TIME_SAMPLE", &v))
            .transpose()?;
    }
    Ok(BenchFlags {
        jobs: jobs.unwrap_or(0) as usize,
        time_sample,
        scale: from_env("NUCA_BENCH_SCALE", 1)?.unwrap_or(100),
        mixes: from_env("NUCA_BENCH_MIXES", 1)?.unwrap_or(10) as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(line: &str, env: &[(&str, &str)]) -> Result<BenchFlags, String> {
        let env: Vec<(String, String)> = env
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        parse_flags(line.split_whitespace().map(String::from), |k| {
            env.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone())
        })
    }

    #[test]
    fn well_formed_flags_parse_and_beat_the_environment() {
        let none = flags("", &[]).unwrap();
        assert_eq!((none.jobs, none.time_sample), (0, None));
        assert_eq!((none.scale, none.mixes), (100, 10));
        let f = flags("--trace t.jsonl --jobs 3 --time-sample 10000:40000", &[]).unwrap();
        assert_eq!((f.jobs, f.time_sample), (3, Some((10_000, 40_000))));
        let f = flags("--jobs=2 --time-sample=5:0", &[]).unwrap();
        assert_eq!((f.jobs, f.time_sample), (2, Some((5, 0))));
        let env = [
            ("NUCA_BENCH_JOBS", "4"),
            ("NUCA_BENCH_TIME_SAMPLE", "100:400"),
        ];
        let f = flags("", &env).unwrap();
        assert_eq!((f.jobs, f.time_sample), (4, Some((100, 400))));
        let f = flags("", &[("NUCA_BENCH_SCALE", "5"), ("NUCA_BENCH_MIXES", "2")]).unwrap();
        assert_eq!((f.scale, f.mixes), (5, 2));
        let f = flags("--jobs 1 --time-sample 7:8", &env).unwrap();
        assert_eq!((f.jobs, f.time_sample), (1, Some((7, 8))));
    }

    #[test]
    fn malformed_flags_are_errors_not_defaults() {
        for (line, env, what) in [
            ("--time-sample 10000:4000O", None, "--time-sample"),
            ("--time-sample=0:40", None, "--time-sample"),
            ("--time-sample 5000", None, "--time-sample"),
            ("--time-sample", None, "--time-sample"),
            ("--jobs x", None, "--jobs"),
            ("--jobs=-1", None, "--jobs"),
            ("--jobs", None, "--jobs"),
            ("", Some(("NUCA_BENCH_JOBS", "x")), "NUCA_BENCH_JOBS"),
            (
                "",
                Some(("NUCA_BENCH_TIME_SAMPLE", "10000:4000O")),
                "NUCA_BENCH_TIME_SAMPLE",
            ),
            ("", Some(("NUCA_BENCH_SCALE", "2O")), "NUCA_BENCH_SCALE"),
            ("", Some(("NUCA_BENCH_SCALE", "0")), "NUCA_BENCH_SCALE"),
            ("", Some(("NUCA_BENCH_MIXES", "x")), "NUCA_BENCH_MIXES"),
            ("", Some(("NUCA_BENCH_MIXES", "0")), "NUCA_BENCH_MIXES"),
        ] {
            let env: Vec<(&str, &str)> = env.into_iter().collect();
            let err = flags(line, &env)
                .err()
                .unwrap_or_else(|| panic!("`{line}` {env:?} parsed"));
            assert!(err.contains(what), "`{line}` {env:?}: `{err}` names {what}");
        }
    }

    #[test]
    fn default_config_is_full_scale() {
        // The env vars are not set under `cargo test`.
        let (tele, exp, mixes) = setup().unwrap();
        assert!(!tele.requested());
        assert_eq!((exp, mixes), (ExperimentConfig::default().with_jobs(0), 10));
    }
}
