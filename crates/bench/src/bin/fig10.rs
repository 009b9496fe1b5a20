//! Figure 10: the impact of technology scaling.

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nuca_bench::figures::fig10;
use nuca_bench::report::{pct, Table};
use simcore::config::MachineConfig;

fn main() {
    let (tele, exp, mixes) = nuca_bench::setup().unwrap_or_else(|e| {
        eprintln!("fig10: {e}");
        std::process::exit(2);
    });
    tele.install();
    let machine = MachineConfig::baseline();
    let r = fig10(&machine, &exp, mixes).expect("figure 10 experiment");
    let mut t = Table::new(
        "Figure 10 — mean harmonic speedup vs private, baseline vs scaled technology",
        &["scheme", "baseline", "scaled tech", "delta"],
    );
    for (label, base, scaled) in &r.schemes {
        t.row(&[
            label,
            &pct(*base),
            &pct(*scaled),
            &format!("{:+.1} pp", (scaled - base) * 100.0),
        ]);
    }
    t.print();
    println!();
    println!("Paper shape: as memory latency grows (258/260 -> 330/338 cycles) the");
    println!("adaptive scheme gains the most, because it removes the most memory accesses.");

    tele.export("fig10").expect("telemetry export");
}
