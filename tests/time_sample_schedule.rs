//! Every entry point that takes a `D:G` time-sampling schedule reads it
//! through `nuca_core::experiment::parse_time_sample`, so all of them
//! accept the same spellings with the same meaning and reject the rest.

use nuca_repro::campaign::{driver, spec::CampaignSpec};
use nuca_repro::nuca_core::experiment::parse_time_sample;

/// The schedule nuca-sim, the figure binaries (perf reads
/// `--time-sample` through their parser) and the spec axis parsed
/// (`None` where refused), and whether the campaign override took it.
fn every_entry_point(schedule: &str) -> ([Option<(u64, u64)>; 3], bool) {
    let flag = ["--time-sample".to_string(), schedule.to_string()];
    let mut sim = ["--org", "shared", "--apps", "ammp,gzip,crafty,eon"]
        .map(String::from)
        .to_vec();
    sim.extend(flag.clone());
    let nuca_sim = nuca_repro::cli::parse_args(&sim)
        .ok()
        .and_then(|r| r.time_sample);
    let figures = nuca_bench::parse_flags(flag.clone(), |_| None)
        .ok()
        .and_then(|f| f.time_sample);
    let spec = CampaignSpec::parse(&format!(
        "[campaign]\n[axes]\ntime_sample = [\"{schedule}\"]\n"
    ));
    let axis = spec
        .ok()
        .map(|s| (s.axes.time_sample[0].detail, s.axes.time_sample[0].gap));
    // An accepted override gets as far as reading the (missing) spec.
    let mut out = Vec::new();
    let missing = std::env::temp_dir().join(format!("nuca-no-spec-{}.toml", std::process::id()));
    let argv = [vec![missing.to_string_lossy().into_owned()], flag.to_vec()].concat();
    assert_eq!(
        driver::run(&argv, &mut |l| out.push(l.to_string())),
        driver::EXIT_USAGE
    );
    let campaign = !out.iter().any(|l| l.contains("--time-sample:"));
    ([nuca_sim, figures, axis], campaign)
}

#[test]
fn every_entry_point_agrees_on_time_sample_schedules() {
    for (schedule, want) in [
        ("10000:40000", (10_000, 40_000)),
        ("10_000:40_000", (10_000, 40_000)),
        (" 10000:40000 ", (10_000, 40_000)),
        ("10000:0", (10_000, 0)),
    ] {
        assert_eq!(parse_time_sample(schedule), Ok(want), "{schedule:?}");
        assert_eq!(
            every_entry_point(schedule),
            ([Some(want); 3], true),
            "{schedule:?}"
        );
    }
    for schedule in ["0:500", "10000/40000", "10000:", "1:2:3", "x:y"] {
        assert!(parse_time_sample(schedule).is_err(), "{schedule:?}");
        assert_eq!(
            every_entry_point(schedule),
            ([None; 3], false),
            "{schedule:?}"
        );
    }
}
