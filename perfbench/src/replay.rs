//! Outside-in timing of the lower layers.
//!
//! Each replay rebuilds a cell's own trace streams the way `Cmp::new`
//! does (`TraceGenerator::new` on the forked per-core seed, then
//! `fast_forward`) and drives them through one layer's public functions:
//!
//! - **tracegen**: `next_op` in full decode and in warm decode;
//! - **cachesim**: the stream's instruction-block and data addresses
//!   through `Cache::access`/`Cache::fill` on per-core L1I, L1D and L2
//!   built from the machine's geometries;
//! - **l3**: the L2-miss and dirty-victim stream of that cache replay
//!   through `LastLevel::access`/`writeback` on a fresh
//!   `L3System::build` of the cell's organization.
//!
//! The measured ns per event, times the cell's own event count, is the
//! layer's attributed host time.

use std::hint::black_box;
use std::time::Instant;

use cachesim::cache::Cache;
use cpusim::l3iface::LastLevel;
use nuca_core::l3::L3System;
use simcore::rng::SimRng;
use simcore::types::{Address, CoreId, Cycle};
use tracegen::op::OpClass;
use tracegen::TraceGenerator;

use crate::spans::Tracer;
use crate::workload::{Cell, Plan};

/// Trace ops replayed per core (capped by the cell's warm budget).
pub const OPS_PER_CORE: u64 = 150_000;

/// Measured replay times and event counts, summable over cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replay {
    /// Ops generated in each decode mode.
    pub ops: u64,
    /// Host ns generating them in full decode.
    pub full_ns: u64,
    /// Host ns generating them in warm decode.
    pub warm_ns: u64,
    /// `Cache::access` calls of the cache replay (L1 and L2).
    pub cache_accesses: u64,
    /// Host ns of the cache replay.
    pub cache_ns: u64,
    /// L3 accesses (L2 misses) replayed.
    pub l3_accesses: u64,
    /// L3 writebacks (dirty L2 victims) replayed.
    pub l3_writebacks: u64,
    /// Host ns of the L3 replay.
    pub l3_ns: u64,
}

impl Replay {
    /// Adds another replay's times and counts.
    pub fn absorb(&mut self, o: &Replay) {
        self.ops += o.ops;
        self.full_ns += o.full_ns;
        self.warm_ns += o.warm_ns;
        self.cache_accesses += o.cache_accesses;
        self.cache_ns += o.cache_ns;
        self.l3_accesses += o.l3_accesses;
        self.l3_writebacks += o.l3_writebacks;
        self.l3_ns += o.l3_ns;
    }

    /// ns per op, full decode.
    pub fn full_ns_per_op(&self) -> f64 {
        ratio(self.full_ns, self.ops)
    }

    /// ns per op, warm decode.
    pub fn warm_ns_per_op(&self) -> f64 {
        ratio(self.warm_ns, self.ops)
    }

    /// ns per cache access (fills included in the time).
    pub fn cache_ns_per_access(&self) -> f64 {
        ratio(self.cache_ns, self.cache_accesses)
    }

    /// ns per L3 access (writebacks and memory-channel work included).
    pub fn l3_ns_per_access(&self) -> f64 {
        ratio(self.l3_ns, self.l3_accesses)
    }
}

fn ratio(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One op of the replayed stream, addresses tagged as the core tags them.
#[derive(Debug, Clone, Copy)]
struct StreamOp {
    core: u8,
    pc: Address,
    /// Data address of a load or store.
    data: Option<(Address, bool)>,
}

/// One request of the L3 replay stream.
#[derive(Debug, Clone, Copy)]
enum L3Req {
    Access(CoreId, Address, bool, Cycle),
    Writeback(CoreId, Address, Cycle),
}

/// The cell's per-core generators, seeded and fast-forwarded exactly as
/// `Cmp::new` seeds them.
fn generators(plan: &Plan, cell: &Cell) -> Vec<TraceGenerator> {
    let mut root = SimRng::seed_from(plan.exp.seed);
    cell.mix
        .apps
        .iter()
        .zip(&cell.mix.forwards)
        .enumerate()
        .map(|(i, (app, forward))| {
            let mut g = TraceGenerator::new(app.profile(), root.fork(i as u64));
            g.fast_forward(*forward);
            g
        })
        .collect()
}

/// Times `n` rounds of `next_op` over every core, core-major per round
/// as the chip consumes them.
fn time_generation(gens: &mut [TraceGenerator], n: u64, warm: bool) -> u64 {
    for g in gens.iter_mut() {
        g.set_warm_decode(warm);
    }
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..n {
        for g in gens.iter_mut() {
            let op = g.next_op();
            acc = acc.wrapping_add(op.pc.raw() ^ op.addr.map_or(0, Address::raw));
        }
    }
    black_box(acc);
    ns_since(t)
}

/// Replays `cell`'s streams through tracegen, cachesim and the L3, each
/// timed under its own span below `parent`.
///
/// # Errors
///
/// When the cell's organization cannot be built.
pub fn replay_cell(
    plan: &Plan,
    cell: &Cell,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Result<Replay, String> {
    let n = OPS_PER_CORE.min(plan.exp.warm_instructions);
    let cores = cell.mix.apps.len() as u64;
    let mut out = Replay {
        ops: n * cores,
        ..Replay::default()
    };

    let t = Instant::now();
    out.full_ns = time_generation(&mut generators(plan, cell), n, false);
    tracer.record("replay.tracegen.full", parent, t, Instant::now());
    let t = Instant::now();
    out.warm_ns = time_generation(&mut generators(plan, cell), n, true);
    tracer.record("replay.tracegen.warm", parent, t, Instant::now());

    let t = Instant::now();
    let stream = build_stream(plan, cell, n);
    tracer.record("replay.stream", parent, t, Instant::now());

    let t = Instant::now();
    let (l3_stream, accesses) = replay_caches(plan, &stream);
    out.cache_ns = ns_since(t);
    out.cache_accesses = accesses;
    tracer.record("replay.cachesim", parent, t, Instant::now());
    drop(stream);

    let mut l3 =
        L3System::build(cell.org, &plan.machine).map_err(|e| format!("L3System::build: {e}"))?;
    let t = Instant::now();
    for req in &l3_stream {
        match *req {
            L3Req::Access(core, addr, write, now) => {
                black_box(l3.access(core, addr, write, now));
                out.l3_accesses += 1;
            }
            L3Req::Writeback(core, addr, now) => {
                l3.writeback(core, addr, now);
                out.l3_writebacks += 1;
            }
        }
    }
    out.l3_ns = ns_since(t);
    tracer.record("replay.l3", parent, t, Instant::now());
    Ok(out)
}

/// The first `n` ops of every core, core-major per round, tagged with
/// the core's address space.
fn build_stream(plan: &Plan, cell: &Cell, n: u64) -> Vec<StreamOp> {
    let mut gens = generators(plan, cell);
    for g in &mut gens {
        g.set_warm_decode(true);
    }
    let mut stream = Vec::with_capacity((n as usize) * gens.len());
    for _ in 0..n {
        for (i, g) in gens.iter_mut().enumerate() {
            let asid = CoreId::from_index(i as u8).asid();
            let op = g.next_op();
            let data = match (op.class, op.addr) {
                (OpClass::Load | OpClass::Store, Some(a)) => {
                    let a = if tracegen::generator::is_shared_address(a) {
                        a
                    } else {
                        a.with_asid(asid)
                    };
                    Some((a, op.class == OpClass::Store))
                }
                _ => None,
            };
            stream.push(StreamOp {
                core: i as u8,
                pc: op.pc.with_asid(asid),
                data,
            });
        }
    }
    stream
}

/// Per-core private hierarchy of the cache replay.
struct Private {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    last_block: u64,
}

/// Walks the stream through per-core L1I/L1D/L2 (`access`, then `fill`
/// on a miss), returning the L3 request stream and the number of
/// `access` calls. One stream round is one cycle of the L3 clock.
fn replay_caches(plan: &Plan, stream: &[StreamOp]) -> (Vec<L3Req>, u64) {
    let m = &plan.machine;
    let mut cores: Vec<Private> = (0..m.cores)
        .map(|_| Private {
            l1i: Cache::new(m.l1i),
            l1d: Cache::new(m.l1d),
            l2: Cache::new(m.l2),
            last_block: u64::MAX,
        })
        .collect();
    let offset = m.l1i.offset_bits();
    let l1d_offset = m.l1d.offset_bits();
    let l2_offset = m.l2.offset_bits();
    let mut l3 = Vec::with_capacity(stream.len() / 16);
    let mut accesses = 0u64;
    let per_cycle = m.cores.max(1);
    for (k, op) in stream.iter().enumerate() {
        let now = Cycle::new((k / per_cycle) as u64);
        let id = CoreId::from_index(op.core);
        let Some(c) = cores.get_mut(usize::from(op.core)) else {
            continue;
        };
        let block = op.pc.block(offset).raw();
        if block != c.last_block {
            c.last_block = block;
            accesses += 1;
            if !c.l1i.access(op.pc, false, id).is_hit() {
                accesses += 1;
                if !c.l2.access(op.pc, false, id).is_hit() {
                    l3.push(L3Req::Access(id, op.pc, false, now));
                    if let Some(v) = c.l2.fill(op.pc, false, id) {
                        if v.dirty {
                            l3.push(L3Req::Writeback(id, v.addr.first_byte(l2_offset), now));
                        }
                    }
                }
                c.l1i.fill(op.pc, false, id);
            }
        }
        if let Some((addr, write)) = op.data {
            accesses += 1;
            if !c.l1d.access(addr, write, id).is_hit() {
                accesses += 1;
                if !c.l2.access(addr, write, id).is_hit() {
                    l3.push(L3Req::Access(id, addr, write, now));
                    if let Some(v) = c.l2.fill(addr, write, id) {
                        if v.dirty {
                            l3.push(L3Req::Writeback(id, v.addr.first_byte(l2_offset), now));
                        }
                    }
                }
                if let Some(v) = c.l1d.fill(addr, write, id) {
                    if v.dirty {
                        c.l2.fill(v.addr.first_byte(l1d_offset), true, id);
                    }
                }
            }
        }
    }
    (l3, accesses)
}
