//! Runs one cell through the public `nuca_core` calls and times each
//! phase: `Cmp::new` → `Cmp::warm` → `Cmp::run` (warm-up window) →
//! `Cmp::reset_stats` → `Cmp::run` (measured window) → `Cmp::snapshot`.
//!
//! Traced, the runner also records a span per call and reads the chip's
//! counters at the phase boundaries, so every layer's event count covers
//! the whole cell: the functional warm-up and both timed windows.

use std::time::Instant;

use cpusim::core::CoreStats;
use cpusim::FastPathStats;
use nuca_core::cmp::{Cmp, CmpResult};

use crate::check::{check_cell, digest};
use crate::spans::Tracer;
use crate::workload::{Cell, Plan};

/// Event counts of one cell, over the warm phase and both timed windows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Cells folded into these counts.
    pub cells: u64,
    /// Simulated cycles of the timed phase.
    pub timed_cycles: u64,
    /// Trace ops consumed by `Cmp::warm` (warm decode).
    pub warm_ops: u64,
    /// Trace ops retired in detailed timed cycles (full decode).
    pub detailed_ops: u64,
    /// Trace ops retired functionally in the timed phase: time-sampling
    /// gaps and pipeline drains (warm decode for the gaps).
    pub functional_ops: u64,
    /// L1I plus L1D accesses.
    pub l1_accesses: u64,
    /// L1I plus L1D hits.
    pub l1_hits: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L3 accesses.
    pub l3_accesses: u64,
    /// L3 hits in the requester's local partition or slice.
    pub l3_local_hits: u64,
    /// L3 hits in the shared partition or a neighbouring slice.
    pub l3_remote_hits: u64,
    /// L3 misses (memory fills).
    pub l3_misses: u64,
    /// L3 accesses in the timed phase.
    pub timed_l3_accesses: u64,
    /// Instructions committed in the timed phase.
    pub timed_committed: u64,
    /// Memory-channel requests in the timed phase.
    pub mem_requests: u64,
    /// Summed memory queueing delay in the timed phase, in cycles.
    pub mem_queue_delay: u64,
    /// Memory-bus busy cycles in the timed phase.
    pub mem_busy_cycles: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// ITLB plus DTLB misses.
    pub tlb_misses: u64,
    /// Fast-path hit counters over the whole cell.
    pub fast: FastPathStats,
    /// Adaptive re-evaluation periods completed.
    pub epochs: u64,
    /// Adaptive quota transfers.
    pub repartitions: u64,
    /// Full detailed windows of a time-sampled timed phase.
    pub ts_windows: u64,
    /// Gap cycles of a time-sampled timed phase.
    pub ts_functional_cycles: u64,
    /// Summed measured-window hmean IPC (divide by `cells`).
    pub hmean_ipc_sum: f64,
}

impl Counts {
    /// Adds another cell's counts.
    pub fn absorb(&mut self, o: &Counts) {
        self.cells += o.cells;
        self.timed_cycles += o.timed_cycles;
        self.warm_ops += o.warm_ops;
        self.detailed_ops += o.detailed_ops;
        self.functional_ops += o.functional_ops;
        self.l1_accesses += o.l1_accesses;
        self.l1_hits += o.l1_hits;
        self.l2_accesses += o.l2_accesses;
        self.l2_hits += o.l2_hits;
        self.l3_accesses += o.l3_accesses;
        self.l3_local_hits += o.l3_local_hits;
        self.l3_remote_hits += o.l3_remote_hits;
        self.l3_misses += o.l3_misses;
        self.timed_l3_accesses += o.timed_l3_accesses;
        self.timed_committed += o.timed_committed;
        self.mem_requests += o.mem_requests;
        self.mem_queue_delay += o.mem_queue_delay;
        self.mem_busy_cycles += o.mem_busy_cycles;
        self.mispredicts += o.mispredicts;
        self.tlb_misses += o.tlb_misses;
        self.fast.absorb(o.fast);
        self.epochs += o.epochs;
        self.repartitions += o.repartitions;
        self.ts_windows += o.ts_windows;
        self.ts_functional_cycles += o.ts_functional_cycles;
        self.hmean_ipc_sum += o.hmean_ipc_sum;
    }

    /// Trace ops consumed over the whole cell.
    pub fn ops(&self) -> u64 {
        self.warm_ops + self.detailed_ops + self.functional_ops
    }

    /// Builds the counts from the chip's statistics at the three phase
    /// boundaries: after `warm` (`w`), just before `reset_stats` (`p`,
    /// cumulative over warm and warm-up window) and after the measured
    /// window (`m`).
    fn from_snapshots(w: &CmpResult, p: &CmpResult, m: &CmpResult, timed_cycles: u64) -> Counts {
        let sum = |r: &CmpResult, f: &dyn Fn(&CoreStats) -> u64| -> u64 {
            r.per_core.iter().map(|(_, s)| f(s)).sum()
        };
        // Both windows of the timed phase, and the whole cell.
        let timed = |f: &dyn Fn(&CoreStats) -> u64| sum(p, f) - sum(w, f) + sum(m, f);
        let all = |f: &dyn Fn(&CoreStats) -> u64| sum(p, f) + sum(m, f);
        let committed = |s: &CoreStats| s.committed;
        let timed_committed = timed(&committed);
        let detailed_ops = detailed_committed(p).unwrap_or(timed_committed - sum(m, &committed))
            + detailed_committed(m).unwrap_or(sum(m, &committed));
        let ts = |r: &CmpResult| {
            r.time_sampling
                .map_or((0, 0), |t| (t.windows, t.functional_cycles))
        };
        let (pw, pf) = ts(p);
        let (mw, mf) = ts(m);
        Counts {
            cells: 1,
            timed_cycles,
            warm_ops: sum(w, &committed),
            detailed_ops,
            functional_ops: timed_committed - detailed_ops,
            l1_accesses: all(&|s| s.l1i.hits + s.l1i.misses + s.l1d.hits + s.l1d.misses),
            l1_hits: all(&|s| s.l1i.hits + s.l1d.hits),
            l2_accesses: all(&|s| s.l2.hits + s.l2.misses),
            l2_hits: all(&|s| s.l2.hits),
            l3_accesses: all(&|s| s.l3_accesses),
            l3_local_hits: all(&|s| s.l3_local_hits),
            l3_remote_hits: all(&|s| s.l3_remote_hits),
            l3_misses: all(&|s| s.l3_misses),
            timed_l3_accesses: timed(&|s| s.l3_accesses),
            timed_committed,
            mem_requests: p.memory.requests - w.memory.requests + m.memory.requests,
            mem_queue_delay: p.memory.total_queue_delay - w.memory.total_queue_delay
                + m.memory.total_queue_delay,
            mem_busy_cycles: p.memory.busy_cycles - w.memory.busy_cycles + m.memory.busy_cycles,
            mispredicts: all(&|s| s.mispredicts),
            tlb_misses: all(&|s| s.dtlb_misses + s.itlb_misses),
            ts_windows: pw + mw,
            ts_functional_cycles: pf + mf,
            hmean_ipc_sum: m.hmean_ipc,
            ..Counts::default()
        }
    }
}

/// Instructions retired inside detailed windows of a time-sampled
/// window, recovered from its IPC estimate (committed in detail over
/// detailed cycles); `None` when the window was not time-sampled.
fn detailed_committed(r: &CmpResult) -> Option<u64> {
    let ts = r.time_sampling?;
    Some(
        r.ipc
            .iter()
            .map(|ipc| (ipc * ts.detailed_cycles as f64).round() as u64)
            .sum(),
    )
}

/// One finished cell: phase times, the check outcome and, when traced,
/// the cell's event counts.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Host seconds in `Cmp::new`.
    pub new_s: f64,
    /// Host seconds in `Cmp::warm`.
    pub warm_s: f64,
    /// Host seconds in both `Cmp::run` calls.
    pub run_s: f64,
    /// Host seconds for the whole cell, checks included.
    pub wall_s: f64,
    /// `Ok` when every check passed, else the reason.
    pub outcome: Result<(), String>,
    /// Digest of the measured window (0 when the cell did not build).
    pub digest: u64,
    /// Event counts (traced runs only).
    pub counts: Option<Counts>,
}

impl CellRun {
    /// Host seconds from `Cmp::new` until `Cmp::warm` returns.
    pub fn setup_s(&self) -> f64 {
        self.new_s + self.warm_s
    }
}

/// Runs `cell` of `plan`, checking its output against `expected` when
/// given. Spans go to `tracer` under `parent` when it is enabled.
pub fn run_cell(
    plan: &Plan,
    cell: &Cell,
    expected: Option<u64>,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> CellRun {
    let traced = tracer.enabled();
    let t0 = Instant::now();
    let span = tracer.open("cell", parent, t0);
    let built = Cmp::new(&plan.machine, cell.org, &cell.mix, plan.exp.seed);
    let t1 = Instant::now();
    tracer.record("cmp.new", span, t0, t1);
    let mut cmp = match built {
        Ok(c) => c,
        Err(e) => {
            tracer.close(span, t1);
            let s = (t1 - t0).as_secs_f64();
            return CellRun {
                new_s: s,
                warm_s: 0.0,
                run_s: 0.0,
                wall_s: s,
                outcome: Err(format!("Cmp::new: {e}")),
                digest: 0,
                counts: None,
            };
        }
    };
    if let Some((detail, gap)) = plan.exp.time_sample {
        cmp.set_time_sample(detail, gap);
    }
    cmp.warm(plan.exp.warm_instructions);
    let t2 = Instant::now();
    tracer.record("cmp.warm", span, t1, t2);

    let warm_snap = traced.then(|| cmp.snapshot());
    let t2b = Instant::now();
    tracer.record("bench.counts", span, t2, t2b);

    cmp.run(plan.exp.warmup_cycles);
    let t3 = Instant::now();
    tracer.record("cmp.run.warmup", span, t2b, t3);

    let pre = traced.then(|| (cmp.snapshot(), cmp.fast_path_stats()));
    let t3b = Instant::now();
    tracer.record("bench.counts", span, t3, t3b);

    cmp.reset_stats();
    let t4 = Instant::now();
    tracer.record("cmp.reset_stats", span, t3b, t4);
    cmp.run(plan.exp.measure_cycles);
    let t5 = Instant::now();
    tracer.record("cmp.run.measure", span, t4, t5);
    let result = cmp.snapshot();
    let t6 = Instant::now();
    tracer.record("cmp.snapshot", span, t5, t6);

    let violations = cmp.audit();
    let outcome = check_cell(&result, &violations, plan.exp.measure_cycles, expected);
    let counts = match (warm_snap, pre) {
        (Some(w), Some((p, fast_pre))) => {
            let mut c = Counts::from_snapshots(&w, &p, &result, plan.timed_cycles());
            c.fast = fast_pre;
            c.fast.absorb(cmp.fast_path_stats());
            if let Some(a) = cmp.l3().as_adaptive() {
                c.epochs = a.engine().epochs();
                c.repartitions = a.engine().repartitions().len() as u64;
            }
            Some(c)
        }
        _ => None,
    };
    let d = digest(&result);
    let t7 = Instant::now();
    tracer.record("bench.check", span, t6, t7);
    tracer.close(span, t7);
    CellRun {
        new_s: (t1 - t0).as_secs_f64(),
        warm_s: (t2 - t1).as_secs_f64(),
        run_s: (t3 - t2b).as_secs_f64() + (t5 - t4).as_secs_f64(),
        wall_s: (t7 - t0).as_secs_f64(),
        outcome,
        digest: d,
        counts,
    }
}
