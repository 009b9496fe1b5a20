//! Figure 7: per-application speedup for the LLC-intensive applications.

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nuca_bench::figures::fig7;
use nuca_bench::report::{pct, Table};
use simcore::config::MachineConfig;

fn main() {
    let (tele, exp, mixes) = nuca_bench::setup().unwrap_or_else(|e| {
        eprintln!("fig7: {e}");
        std::process::exit(2);
    });
    tele.install();
    let machine = MachineConfig::baseline();
    let rows = fig7(&machine, &exp, mixes).expect("figure 7 experiment");
    let mut t = Table::new(
        "Figure 7 — adaptive speedup per intensive application",
        &["app", "vs private", "vs shared", "vs 4x private", "n"],
    );
    for r in &rows {
        t.row(&[
            r.app,
            &pct(r.vs_private),
            &pct(r.vs_shared),
            &pct(r.vs_private4x),
            &r.appearances.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("Paper shape: ammp/art/twolf/vpr lose to the 4x-larger private cache");
    println!("(they want more capacity) but beat plain private caches.");

    tele.export("fig7").expect("telemetry export");
}
