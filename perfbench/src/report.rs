//! Turns finished cells into the named metrics and the result line.

use crate::cell::{CellRun, Counts};
use crate::replay::Replay;
use crate::workload::Plan;

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        // JSON has no NaN or infinity; an undefined ratio reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name, value, unit }
    }

    /// The value with all its digits (counts without a fraction).
    pub fn value_text(&self) -> String {
        if self.value.fract() == 0.0 && self.value.abs() < 1e15 {
            format!("{}", self.value as i64)
        } else {
            format!("{}", self.value)
        }
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value_text(),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per cell, the median over rounds of `f`.
fn per_cell_medians(rounds: &[Vec<CellRun>], f: impl Fn(&CellRun) -> f64) -> Vec<f64> {
    let cells = rounds.first().map_or(0, Vec::len);
    (0..cells)
        .map(|c| median(rounds.iter().filter_map(|r| r.get(c)).map(&f).collect()))
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run of whole rounds.
///
/// `sim_cycles_per_s` is total timed cycles over total host seconds in
/// `Cmp::run`, over every cell of every round: the host switches between
/// fast and slow phases lasting seconds, and a mean over the whole run
/// moves smoothly with the share of slow phases where a median jumps
/// between the two speeds. `setup_s` is each cell's median over the
/// rounds, averaged over the cells.
pub fn end_to_end(plan: &Plan, rounds: &[Vec<CellRun>]) -> Vec<Metric> {
    let cells = rounds.iter().map(Vec::len).sum::<usize>();
    let run_s: f64 = rounds.iter().flatten().map(|r| r.run_s).sum();
    let setup = per_cell_medians(rounds, CellRun::setup_s);
    vec![
        Metric::new(
            "sim_cycles_per_s",
            (plan.timed_cycles() * cells as u64) as f64 / run_s,
            "cycles/s",
        ),
        Metric::new(
            "setup_s",
            setup.iter().sum::<f64>() / setup.len().max(1) as f64,
            "s",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Host seconds attributed to each lower layer in one cell: the layer's
/// replayed ns per event times the cell's own event count.
#[derive(Debug, Clone, Copy, Default)]
struct Attributed {
    tracegen_s: f64,
    cachesim_s: f64,
    l3_s: f64,
}

fn attribute(c: &Counts, r: &Replay) -> Attributed {
    // Warm decode serves `Cmp::warm` and the time-sampling gaps; the
    // detailed pipeline fetches in full decode.
    let tracegen_ns = r.warm_ns_per_op() * (c.warm_ops + c.functional_ops) as f64
        + r.full_ns_per_op() * c.detailed_ops as f64;
    Attributed {
        tracegen_s: tracegen_ns * 1e-9,
        cachesim_s: r.cache_ns_per_access() * (c.l1_accesses + c.l2_accesses) as f64 * 1e-9,
        l3_s: r.l3_ns_per_access() * c.l3_accesses as f64 * 1e-9,
    }
}

fn frac(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The per-layer metrics of a traced run: `untraced` and `traced` are the
/// same round of cells without and with spans, `replays` the cells'
/// outside-in layer timings, `probe_ns` the host-speed probe.
pub fn per_layer(
    untraced: &[CellRun],
    traced: &[CellRun],
    replays: &[Replay],
    probe_ns: f64,
) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let mut counts = Counts::default();
    let mut replay = Replay::default();
    let mut attributed = Attributed::default();
    for (run, r) in traced.iter().zip(replays) {
        let Some(c) = &run.counts else { continue };
        counts.absorb(c);
        replay.absorb(r);
        let a = attribute(c, r);
        attributed.tracegen_s += a.tracegen_s;
        attributed.cachesim_s += a.cachesim_s;
        attributed.l3_s += a.l3_s;
    }
    let sum = |v: &[CellRun], f: fn(&CellRun) -> f64| v.iter().map(f).sum::<f64>();
    let new_s = sum(traced, |r| r.new_s);
    let warm_s = sum(traced, |r| r.warm_s);
    let run_s = sum(traced, |r| r.run_s);
    let phase_s = warm_s + run_s;
    let layers_s = attributed.tracegen_s + attributed.cachesim_s + attributed.l3_s;
    let share = |s: f64| if phase_s > 0.0 { s / phase_s } else { 0.0 };
    let c = &counts;
    vec![
        Metric::new("cmp.new_s", new_s / n, "s"),
        Metric::new("cmp.warm_s", warm_s / n, "s"),
        Metric::new("cmp.run_s", run_s / n, "s"),
        Metric::new(
            "trace.overhead",
            sum(traced, |r| r.wall_s) / sum(untraced, |r| r.wall_s),
            "ratio",
        ),
        Metric::new("tracegen.ops", c.ops() as f64, "count"),
        Metric::new("tracegen.ns_per_op", replay.full_ns_per_op(), "ns"),
        Metric::new("tracegen.warm_ns_per_op", replay.warm_ns_per_op(), "ns"),
        Metric::new("tracegen.share", share(attributed.tracegen_s), "fraction"),
        Metric::new("cachesim.l1_accesses", c.l1_accesses as f64, "count"),
        Metric::new(
            "cachesim.l1_hit_rate",
            frac(c.l1_hits, c.l1_accesses),
            "fraction",
        ),
        Metric::new("cachesim.l2_accesses", c.l2_accesses as f64, "count"),
        Metric::new(
            "cachesim.l2_hit_rate",
            frac(c.l2_hits, c.l2_accesses),
            "fraction",
        ),
        Metric::new("cachesim.ns_per_access", replay.cache_ns_per_access(), "ns"),
        Metric::new("cachesim.share", share(attributed.cachesim_s), "fraction"),
        Metric::new("l3.accesses", c.l3_accesses as f64, "count"),
        Metric::new("l3.local_hits", c.l3_local_hits as f64, "count"),
        Metric::new("l3.remote_hits", c.l3_remote_hits as f64, "count"),
        Metric::new("l3.misses", c.l3_misses as f64, "count"),
        Metric::new(
            "l3.timed_accesses_per_kcycle",
            1000.0 * frac(c.timed_l3_accesses, c.timed_cycles),
            "1/kcycle",
        ),
        Metric::new("l3.ns_per_access", replay.l3_ns_per_access(), "ns"),
        Metric::new("l3.share", share(attributed.l3_s), "fraction"),
        Metric::new("engine.epochs", c.epochs as f64, "count"),
        Metric::new("engine.repartitions", c.repartitions as f64, "count"),
        Metric::new("memsim.requests", c.mem_requests as f64, "count"),
        Metric::new(
            "memsim.mean_queue_delay",
            frac(c.mem_queue_delay, c.mem_requests),
            "cycles",
        ),
        Metric::new("memsim.busy_cycles", c.mem_busy_cycles as f64, "cycles"),
        Metric::new("cpusim.committed", c.timed_committed as f64, "count"),
        Metric::new(
            "cpusim.timed_ipc",
            frac(c.timed_committed, c.timed_cycles),
            "inst/cycle",
        ),
        Metric::new("cpusim.hmean_ipc", c.hmean_ipc_sum / n, "inst/cycle"),
        Metric::new("cpusim.fast_fraction", c.fast.fast_fraction(), "fraction"),
        Metric::new("cpusim.mispredicts", c.mispredicts as f64, "count"),
        Metric::new("cpusim.tlb_misses", c.tlb_misses as f64, "count"),
        Metric::new(
            "cpusim.residual_share",
            share(phase_s - layers_s),
            "fraction",
        ),
        Metric::new("ts.windows", c.ts_windows as f64, "count"),
        Metric::new(
            "ts.functional_cycles",
            c.ts_functional_cycles as f64,
            "cycles",
        ),
        Metric::new(
            "ts.functional_share",
            frac(c.ts_functional_cycles, c.timed_cycles),
            "fraction",
        ),
        Metric::new("attribution.coverage", share(layers_s), "fraction"),
        Metric::new("host.probe_ns", probe_ns, "ns"),
    ]
}
