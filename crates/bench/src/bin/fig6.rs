//! Figure 6: harmonic mean of IPC per experiment (LLC-intensive mixes).

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nuca_bench::figures::fig6;
use nuca_bench::report::{f4, pct, Table};
use simcore::config::MachineConfig;
use simcore::stats::speedup;

fn main() {
    let (tele, exp, mixes) = nuca_bench::setup().unwrap_or_else(|e| {
        eprintln!("fig6: {e}");
        std::process::exit(2);
    });
    tele.install();
    let machine = MachineConfig::baseline();
    let r = fig6(&machine, &exp, mixes).expect("figure 6 experiment");
    let mut t = Table::new(
        "Figure 6 — harmonic-mean IPC per experiment, sorted by adaptive/private",
        &["mix", "private", "shared", "adaptive", "adp/priv", "quotas"],
    );
    for row in &r.rows {
        t.row(&[
            &row.label,
            &f4(row.private),
            &f4(row.shared),
            &f4(row.adaptive),
            &pct(speedup(row.adaptive, row.private)),
            &format!("{:?}", row.quotas),
        ]);
    }
    t.print();
    println!();
    println!(
        "adaptive vs private: harmonic {} / arithmetic {}   (paper: +21% / +13%)",
        pct(r.adaptive.hmean_speedup),
        pct(r.adaptive.amean_speedup)
    );
    println!(
        "adaptive vs shared : harmonic {} / arithmetic {}   (paper: +2% / +5%)",
        pct(r.adaptive.hmean_speedup / r.shared.hmean_speedup),
        pct(r.adaptive.amean_speedup / r.shared.amean_speedup)
    );

    tele.export("fig6").expect("telemetry export");
}
