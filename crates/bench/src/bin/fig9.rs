//! Figure 9: the per-application comparison with an 8-MByte L3.

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nuca_bench::figures::fig9;
use nuca_bench::report::{pct, Table};
use simcore::config::MachineConfig;

fn main() {
    let (tele, exp, mixes) = nuca_bench::setup().unwrap_or_else(|e| {
        eprintln!("fig9: {e}");
        std::process::exit(2);
    });
    tele.install();
    let machine = MachineConfig::baseline();
    let rows = fig9(&machine, &exp, mixes).expect("figure 9 experiment");
    let mut t = Table::new(
        "Figure 9 — 8-MByte L3 (2 MB/core slices, same timing model)",
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
    println!("Paper shape: with ample capacity the adaptive scheme's constraints");
    println!("stop paying off and can slightly degrade performance.");

    tele.export("fig9").expect("telemetry export");
}
