//! Parallel-execution determinism regression tests.
//!
//! The work-stealing runner in `simcore::parallel` must be pure
//! execution policy: the same experiment grid run with `--jobs 1` and
//! `--jobs 4` has to produce bit-identical results, because every
//! simulation cell carries its own RNG and no state is shared between
//! cells. These tests pin that contract at two levels — the raw
//! `run_cells` grid API and a full figure driver.

// Test harness: failing fast on setup errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nuca_bench::figures;
use nuca_core::experiment::{run_cells, ExperimentConfig, SimCell};
use nuca_core::l3::Organization;
use simcore::config::MachineConfig;
use tracegen::spec::SpecApp;
use tracegen::workload::WorkloadPool;

fn tiny() -> ExperimentConfig {
    ExperimentConfig {
        warm_instructions: 40_000,
        warmup_cycles: 8_000,
        measure_cycles: 25_000,
        ..ExperimentConfig::default()
    }
}

#[test]
fn run_cells_is_bit_identical_across_job_counts() {
    let machine = MachineConfig::baseline();
    let exp = tiny();
    let mixes = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), machine.cores, 3, exp.seed);
    let orgs = [
        Organization::Private,
        Organization::Shared,
        Organization::adaptive(),
    ];
    let cells: Vec<SimCell<'_>> = mixes
        .iter()
        .flat_map(|mix| {
            orgs.iter().map(|&org| SimCell {
                machine: &machine,
                org,
                mix,
            })
        })
        .collect();

    let serial = run_cells(&cells, &exp.with_jobs(1)).unwrap();
    let parallel = run_cells(&cells, &exp.with_jobs(4)).unwrap();
    assert_eq!(
        serial, parallel,
        "run_cells with jobs=4 must reproduce jobs=1 exactly"
    );

    // And an oversubscribed pool (more workers than cells) as the edge.
    let oversubscribed = run_cells(&cells, &exp.with_jobs(64)).unwrap();
    assert_eq!(serial, oversubscribed);
}

#[test]
fn figure_driver_is_bit_identical_across_job_counts() {
    let machine = MachineConfig::baseline();
    let exp = tiny();
    // Fig6Result has no PartialEq; bit-identical floats render to
    // identical Debug text, which is also what the fig* binaries print.
    let serial = format!(
        "{:?}",
        figures::fig6(&machine, &exp.with_jobs(1), 2).unwrap()
    );
    let parallel = format!(
        "{:?}",
        figures::fig6(&machine, &exp.with_jobs(4), 2).unwrap()
    );
    assert_eq!(
        serial, parallel,
        "fig6 output must not depend on the job count"
    );
}
