//! End-to-end integration tests spanning every crate: trace generation →
//! out-of-order cores → last-level organizations → contended memory,
//! driven through the experiment harness.

use nuca_repro::nuca_core::cmp::{Cmp, CmpResult};
use nuca_repro::nuca_core::experiment::{
    compare_schemes, initial_quotas, run_mix, run_mix_traced, ExperimentConfig,
};
use nuca_repro::nuca_core::l3::Organization;
use nuca_repro::simcore::config::MachineConfig;
use nuca_repro::simcore::error::ConfigError;
use nuca_repro::simcore::snapshot::fnv1a64;
use nuca_repro::telemetry::export::render_jsonl;
use nuca_repro::telemetry::{Recorder, Trace, TraceMeta};
use nuca_repro::tracegen::spec::SpecApp;
use nuca_repro::tracegen::workload::{Mix, WorkloadPool};

fn exp() -> ExperimentConfig {
    ExperimentConfig::quick()
}

fn mixed() -> Mix {
    Mix {
        apps: vec![SpecApp::Ammp, SpecApp::Gzip, SpecApp::Crafty, SpecApp::Mcf],
        forwards: vec![600_000_000, 700_000_000, 800_000_000, 900_000_000],
    }
}

#[test]
fn every_organization_completes_a_mixed_workload() {
    let machine = MachineConfig::baseline();
    for org in [
        Organization::Private,
        Organization::PrivateScaled { factor: 4 },
        Organization::Shared,
        Organization::adaptive(),
        Organization::Cooperative { seed: 1 },
    ] {
        let r = run_mix(&machine, org, &mixed(), &exp()).unwrap();
        assert_eq!(r.result.per_core.len(), 4, "{}", org.label());
        for (app, s) in &r.result.per_core {
            assert!(s.committed > 0, "{}/{app} made no progress", org.label());
            assert!(s.ipc() > 0.0 && s.ipc() <= 4.0);
        }
        assert!(r.result.hmean_ipc <= r.result.amean_ipc + 1e-9);
        assert!(r.result.memory.requests > 0, "memory saw traffic");
    }
}

#[test]
fn experiments_are_deterministic() {
    let machine = MachineConfig::baseline();
    let a = run_mix(&machine, Organization::adaptive(), &mixed(), &exp()).unwrap();
    let b = run_mix(&machine, Organization::adaptive(), &mixed(), &exp()).unwrap();
    assert_eq!(a.result.per_core, b.result.per_core);
    assert_eq!(a.result.quotas, b.result.quotas);
}

#[test]
fn seed_changes_the_outcome() {
    let machine = MachineConfig::baseline();
    let mut e2 = exp();
    e2.seed += 1;
    let a = run_mix(&machine, Organization::adaptive(), &mixed(), &exp()).unwrap();
    let b = run_mix(&machine, Organization::adaptive(), &mixed(), &e2).unwrap();
    assert_ne!(
        a.result.per_core[0].1.committed,
        b.result.per_core[0].1.committed
    );
}

#[test]
fn schemes_share_identical_workloads() {
    let machine = MachineConfig::baseline();
    let rs = compare_schemes(
        &machine,
        &[
            Organization::Private,
            Organization::Shared,
            Organization::adaptive(),
        ],
        &mixed(),
        &exp(),
    )
    .unwrap();
    for pair in rs.windows(2) {
        assert_eq!(pair[0].mix, pair[1].mix);
        for i in 0..4 {
            assert_eq!(pair[0].result.per_core[i].0, pair[1].result.per_core[i].0);
        }
    }
}

#[test]
fn adaptive_quota_conservation_holds_throughout_a_run() {
    let machine = MachineConfig::baseline();
    let mix = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), 4, 1, 5)
        .pop()
        .unwrap();
    let mut cmp = Cmp::new(&machine, Organization::adaptive(), &mix, 5).unwrap();
    cmp.warm(200_000);
    for _ in 0..20 {
        cmp.run(10_000);
        let quotas = cmp.l3().as_adaptive().unwrap().quotas();
        assert_eq!(quotas.iter().sum::<u32>(), 16, "quota conservation");
        assert!(quotas.iter().all(|&q| (1..=13).contains(&q)));
    }
}

#[test]
fn adaptive_structure_invariants_survive_a_full_run() {
    let machine = MachineConfig::baseline();
    let mut cmp = Cmp::new(&machine, Organization::adaptive(), &mixed(), 9).unwrap();
    cmp.warm(300_000);
    cmp.run(100_000);
    assert!(cmp.l3().as_adaptive().unwrap().check_invariants());
}

#[test]
fn private_org_isolates_cores_but_adaptive_shares() {
    // Under private slices, a light app's L3 stats are independent of its
    // neighbors' appetite; under the adaptive scheme the hungry neighbor
    // borrows capacity (visible as shared-partition hits).
    let machine = MachineConfig::baseline();
    let r = run_mix(&machine, Organization::adaptive(), &mixed(), &exp()).unwrap();
    let total_remote: u64 = r
        .result
        .per_core
        .iter()
        .map(|(_, s)| s.l3_remote_hits)
        .sum();
    assert!(
        total_remote > 0,
        "adaptive scheme produced shared-partition hits"
    );
    let p = run_mix(&machine, Organization::Private, &mixed(), &exp()).unwrap();
    let private_remote: u64 = p
        .result
        .per_core
        .iter()
        .map(|(_, s)| s.l3_remote_hits)
        .sum();
    assert_eq!(private_remote, 0, "private slices never hit remotely");
}

#[test]
fn cooperative_spills_show_up_as_remote_hits() {
    let machine = MachineConfig::baseline();
    let r = run_mix(
        &machine,
        Organization::Cooperative { seed: 3 },
        &mixed(),
        &exp(),
    )
    .unwrap();
    let remote: u64 = r
        .result
        .per_core
        .iter()
        .map(|(_, s)| s.l3_remote_hits)
        .sum();
    assert!(remote > 0, "spilled blocks were found in neighbor slices");
}

#[test]
fn technology_scaled_machine_runs_and_slows_memory() {
    let machine = MachineConfig::baseline();
    let scaled = machine.technology_scaled();
    let base = run_mix(&machine, Organization::Private, &mixed(), &exp()).unwrap();
    let slow = run_mix(&scaled, Organization::Private, &mixed(), &exp()).unwrap();
    // Same workload, slower memory: every core is no faster.
    for i in 0..4 {
        assert!(
            slow.result.ipc[i] <= base.result.ipc[i] * 1.02 + 1e-9,
            "core {i}: scaled {:.4} vs base {:.4}",
            slow.result.ipc[i],
            base.result.ipc[i]
        );
    }
}

#[test]
fn eight_megabyte_l3_reduces_misses() {
    let machine = MachineConfig::baseline();
    let big = machine.with_l3_scale(2).unwrap();
    let mix = Mix {
        apps: vec![SpecApp::Ammp, SpecApp::Art, SpecApp::Twolf, SpecApp::Vpr],
        forwards: vec![700_000_000; 4],
    };
    let small = run_mix(&machine, Organization::Private, &mix, &exp()).unwrap();
    let large = run_mix(&big, Organization::Private, &mix, &exp()).unwrap();
    assert!(
        large.result.total_l3_misses() < small.result.total_l3_misses(),
        "denser cache must miss less for cache-hungry mixes"
    );
}

/// The reference side of the skip ≡ step contract: `run_mix_traced`'s
/// protocol (ring capacity 4096) advancing every timed cycle through
/// [`Cmp::step`] instead of [`Cmp::run`].
fn run_mixed_stepped(
    machine: &MachineConfig,
    org: Organization,
) -> Result<(CmpResult, Trace), ConfigError> {
    let (exp, capacity) = (exp(), 4096);
    let recorder = Recorder::with_capacity(capacity);
    let mut cmp = Cmp::new_with_sink(machine, org, &mixed(), exp.seed, recorder.clone())?;
    cmp.warm(exp.warm_instructions);
    for _ in 0..exp.warmup_cycles {
        cmp.step();
    }
    cmp.reset_stats();
    for _ in 0..exp.measure_cycles {
        cmp.step();
    }
    let result = cmp.snapshot();
    let meta = TraceMeta {
        org: org.label().to_string(),
        cores: machine.cores,
        ring_capacity: capacity,
        initial_quotas: initial_quotas(machine, org),
    };
    let trace = recorder.finish(meta, result.quotas.clone().unwrap_or_default());
    Ok((result, trace))
}

#[test]
fn cycle_skip_is_invisible_end_to_end() {
    // The event-driven run loop must be invisible: for every
    // organization, the measured window and the *byte-rendered*
    // telemetry stream match stepping every cycle exactly. (Figure rows
    // and metrics exports are pure functions of these; the golden
    // digests in `no_fast_path_is_invisible_end_to_end` pin them.)
    let machine = MachineConfig::baseline();
    for org in [
        Organization::Private,
        Organization::Shared,
        Organization::adaptive(),
    ] {
        let (fast, fast_trace) = run_mix_traced(&machine, org, &mixed(), &exp(), 4096).unwrap();
        let (stepped, stepped_trace) = run_mixed_stepped(&machine, org).unwrap();
        assert_eq!(fast.result, stepped, "{} window differs", org.label());
        assert_eq!(
            render_jsonl(std::slice::from_ref(&fast_trace)),
            render_jsonl(std::slice::from_ref(&stepped_trace)),
            "{} telemetry JSONL differs",
            org.label()
        );
    }
}

#[test]
fn time_sample_zero_gap_is_byte_identical_end_to_end() {
    // A `detail:0` schedule has no functional gaps: the scheduler must
    // collapse to the plain detailed path, so the measured window, the
    // byte-rendered telemetry stream and the CLI report all match a run
    // without the flag exactly — for every organization kind.
    let machine = MachineConfig::baseline();
    for org in [
        Organization::Private,
        Organization::Shared,
        Organization::adaptive(),
        Organization::Cooperative { seed: 1 },
    ] {
        let (full, full_trace) = run_mix_traced(&machine, org, &mixed(), &exp(), 4096).unwrap();
        let (ts, ts_trace) = run_mix_traced(
            &machine,
            org,
            &mixed(),
            &exp().with_time_sample(Some((5_000, 0))),
            4096,
        )
        .unwrap();
        assert_eq!(full.result, ts.result, "{} window differs", org.label());
        assert!(
            ts.result.time_sampling.is_none(),
            "a 0-gap schedule is full detail and reports no estimate"
        );
        assert_eq!(
            render_jsonl(std::slice::from_ref(&full_trace)),
            render_jsonl(std::slice::from_ref(&ts_trace)),
            "{} telemetry JSONL differs",
            org.label()
        );
    }

    // And the CLI surface: stdout must be byte-identical too.
    use nuca_repro::cli::{parse_args, render, run};
    let to_args = |extra: &[&str]| -> Vec<String> {
        let mut v: Vec<String> = [
            "--org",
            "adaptive",
            "--apps",
            "ammp,gzip,crafty,mcf",
            "--warm",
            "200000",
            "--warmup",
            "10000",
            "--measure",
            "60000",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };
    let full_req = parse_args(&to_args(&[])).unwrap();
    let ts_req = parse_args(&to_args(&["--time-sample", "5000:0"])).unwrap();
    let full = run(&full_req).unwrap();
    let ts = run(&ts_req).unwrap();
    assert_eq!(full, ts);
    assert_eq!(
        render(&full_req, "adaptive", &full),
        render(&ts_req, "adaptive", &ts),
        "rendered reports must be byte-identical at gap 0"
    );
}

/// FNV-1a over an explicit list of every [`CmpResult`] field, so that
/// adding a field does not move the digest.
fn result_digest(r: &CmpResult) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for (app, s) in &r.per_core {
        words.extend(app.bytes().map(u64::from));
        words.extend([
            s.committed,
            s.cycles,
            s.l1i.hits,
            s.l1i.misses,
            s.l1d.hits,
            s.l1d.misses,
            s.l2.hits,
            s.l2.misses,
            s.l3_accesses,
            s.l3_local_hits,
            s.l3_remote_hits,
            s.l3_misses,
            s.branches,
            s.mispredicts,
            s.dtlb_misses,
            s.itlb_misses,
        ]);
    }
    words.extend(r.ipc.iter().map(|v| v.to_bits()));
    words.extend([r.hmean_ipc.to_bits(), r.amean_ipc.to_bits()]);
    words.extend([
        r.memory.requests,
        r.memory.total_queue_delay,
        r.memory.busy_cycles,
    ]);
    match &r.quotas {
        Some(q) => {
            words.push(1);
            words.extend(q.iter().map(|&q| u64::from(q)));
        }
        None => words.push(0),
    }
    match &r.time_sampling {
        Some(ts) => words.extend([
            1,
            ts.detail,
            ts.gap,
            ts.windows,
            ts.detailed_cycles,
            ts.functional_cycles,
            ts.mean_window_hmean_ipc.to_bits(),
            ts.hmean_ipc_std_error.to_bits(),
            ts.relative_ci95.to_bits(),
        ]),
        None => words.push(0),
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

#[test]
fn no_fast_path_is_invisible_end_to_end() {
    // The core's one hit path (the functional TLB+L1 walk, page/way
    // memos and warm decode) must reproduce the sequential reference
    // walks exactly. These digests were recorded from both the
    // memo-served path and the reference walks (a since-removed mode
    // with every memo and fused probe switched off), which agreed byte
    // for byte: the measured window, the rendered telemetry stream and
    // the CLI report, for every organization kind.
    let machine = MachineConfig::baseline();
    let golden: [(Organization, u64, u64); 4] = [
        (
            Organization::Private,
            0x7384_7543_97e4_35be,
            0x5f96_7fc2_5bfa_52cf,
        ),
        (
            Organization::Shared,
            0x363c_1efc_5e2a_7572,
            0xeb5d_f305_091a_f841,
        ),
        (
            Organization::adaptive(),
            0xa37a_9380_b6d0_5a40,
            0x8f14_0c18_b524_236f,
        ),
        (
            Organization::Cooperative { seed: 1 },
            0xcbff_aa1c_46a5_1baa,
            0x1b32_104e_2e2d_bbf3,
        ),
    ];
    for (org, result_want, trace_want) in golden {
        let (r, trace) = run_mix_traced(&machine, org, &mixed(), &exp(), 4096).unwrap();
        let jsonl = render_jsonl(std::slice::from_ref(&trace));
        assert_eq!(
            result_digest(&r.result),
            result_want,
            "{} window moved",
            org.label()
        );
        assert_eq!(
            fnv1a64(jsonl.as_bytes()),
            trace_want,
            "{} telemetry JSONL moved",
            org.label()
        );
    }

    // And the CLI surface: the rendered report is pinned too.
    use nuca_repro::cli::{parse_args, render, run};
    let args: Vec<String> = [
        "--org",
        "adaptive",
        "--apps",
        "ammp,gzip,crafty,mcf",
        "--warm",
        "200000",
        "--warmup",
        "10000",
        "--measure",
        "60000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let req = parse_args(&args).unwrap();
    let result = run(&req).unwrap();
    assert_eq!(
        fnv1a64(render(&req, "adaptive", &result).as_bytes()),
        0xfc57_caf2_b75e_43e2,
        "rendered report moved"
    );
}
