//! Figure 8: speedup vs private caches for all applications.

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nuca_bench::figures::fig8;
use nuca_bench::report::{pct, Table};
use simcore::config::MachineConfig;

fn main() {
    let (tele, exp, mixes) = nuca_bench::setup().unwrap_or_else(|e| {
        eprintln!("fig8: {e}");
        std::process::exit(2);
    });
    tele.install();
    let machine = MachineConfig::baseline();
    let rows = fig8(&machine, &exp, mixes).expect("figure 8 experiment");
    let mut t = Table::new(
        "Figure 8 — adaptive speedup vs private, all applications",
        &["app", "speedup", "class", "n"],
    );
    for r in &rows {
        t.row(&[
            r.app,
            &pct(r.speedup),
            if r.intensive {
                "intensive"
            } else {
                "non-intensive"
            },
            &r.appearances.to_string(),
        ]);
    }
    t.print();

    tele.export("fig8").expect("telemetry export");
}
