//! Figure 11: the adaptive scheme vs cooperative caching, intensive mixes.

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nuca_bench::figures::fig11;
use nuca_bench::report::{f4, pct, Table};
use simcore::config::MachineConfig;
use simcore::stats::arithmetic_mean;

fn main() {
    let (tele, exp, mixes) = nuca_bench::setup().unwrap_or_else(|e| {
        eprintln!("fig11: {e}");
        std::process::exit(2);
    });
    tele.install();
    let machine = MachineConfig::baseline();
    let rows = fig11(&machine, &exp, mixes).expect("figure 11 experiment");
    let mut t = Table::new(
        "Figure 11 — adaptive vs \"random replacement\" (Chang & Sohi), intensive mixes",
        &["mix", "adaptive", "cooperative", "relative"],
    );
    for r in &rows {
        t.row(&[
            &r.label,
            &f4(r.adaptive),
            &f4(r.cooperative),
            &pct(r.relative),
        ]);
    }
    t.print();
    let mean = arithmetic_mean(&rows.iter().map(|r| r.relative).collect::<Vec<_>>());
    println!(
        "\nmean relative performance: {} (paper: adaptive generally better)",
        pct(mean)
    );

    tele.export("fig11").expect("telemetry export");
}
