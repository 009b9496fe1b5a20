//! The private last-level organization: one isolated slice per core.
//!
//! The baseline the paper compares everything against: "the performance of
//! such an organization is quite predictable and well understood". Hits
//! cost 14 cycles; misses go straight to memory with the 258-cycle first
//! chunk (two cycles less than the shared organizations, which must
//! complete a global lookup first).

use cachesim::cache::Cache;
use cachesim::percore::PerCore;
use cpusim::l3iface::{L3Outcome, L3Source, LastLevel};
use memsim::{MainMemory, MemoryStats};
use simcore::config::{CacheGeometry, MachineConfig};
use simcore::invariant::{Invariant, Violation};
use simcore::types::{Address, CoreId, Cycle};
use telemetry::{Event, NullSink, Sink};

/// Per-core private last-level slices.
///
/// Also used (with a scaled or custom geometry) for the "4 x size private"
/// yardstick of Figures 7–9 and the Figure 3 blocks-per-set sweep.
#[derive(Debug)]
pub struct PrivateL3<S: Sink = NullSink> {
    slices: PerCore<Cache>,
    latency: u64,
    memory: MainMemory,
    sink: S,
}

impl PrivateL3 {
    /// Creates untraced private slices with the given per-slice geometry.
    pub fn new(cfg: &MachineConfig, slice_geometry: CacheGeometry) -> Self {
        PrivateL3::with_sink(cfg, slice_geometry, NullSink)
    }
}

impl<S: Sink> PrivateL3<S> {
    /// Creates private slices emitting telemetry into `sink`.
    pub fn with_sink(cfg: &MachineConfig, slice_geometry: CacheGeometry, sink: S) -> Self {
        PrivateL3 {
            slices: PerCore::from_fn(cfg.cores, |_| Cache::new(slice_geometry)),
            latency: slice_geometry.latency(),
            memory: MainMemory::new(cfg.memory, slice_geometry.block_bytes()),
            sink,
        }
    }

    /// The slice belonging to `core` (for inspection in tests).
    pub fn slice(&self, core: CoreId) -> &Cache {
        &self.slices[core]
    }

    /// Declares the memory bus idle (warm/timed boundary).
    pub fn quiesce(&mut self, now: Cycle) {
        self.memory.quiesce(now);
    }

    /// Memory-channel statistics.
    pub fn memory_stats(&self) -> MemoryStats {
        self.memory.stats()
    }

    /// Resets statistics at the warm-up boundary.
    pub fn reset_stats(&mut self) {
        self.memory.reset_stats();
        for s in self.slices.iter_mut() {
            s.reset_stats();
        }
    }

    /// Writes the slice contents and memory-bus state to a snapshot.
    pub fn save_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        for slice in self.slices.iter() {
            slice.save_state(w);
        }
        self.memory.save_state(w);
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError`] on geometry mismatch or
    /// decode failure.
    pub fn load_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        for slice in self.slices.iter_mut() {
            slice.load_state(r)?;
        }
        self.memory.load_state(r)
    }
}

impl<S: Sink> Invariant for PrivateL3<S> {
    fn component(&self) -> &'static str {
        "private-l3"
    }

    fn audit(&self) -> Vec<Violation> {
        self.slices
            .iter()
            .enumerate()
            .flat_map(|(i, slice)| {
                slice.audit().into_iter().map(move |mut v| {
                    v.core.get_or_insert(i);
                    v
                })
            })
            .collect()
    }
}

impl<S: Sink> LastLevel for PrivateL3<S> {
    fn access(&mut self, core: CoreId, addr: Address, write: bool, now: Cycle) -> L3Outcome {
        let slice = &mut self.slices[core];
        if slice.access(addr, write, core).is_hit() {
            return L3Outcome {
                data_ready: now + self.latency,
                source: L3Source::LocalHit,
            };
        }
        let resp = self.memory.request(now, true);
        if S::ENABLED {
            self.sink.emit(
                now,
                Event::MemoryFill {
                    core,
                    queue_delay: resp.queue_delay,
                },
            );
        }
        if let Some(ev) = self.slices[core].fill(addr, write, core) {
            if S::ENABLED {
                self.sink.emit(now, Event::Eviction { owner: ev.owner });
            }
            if ev.dirty {
                self.memory.writeback(now);
            }
        }
        L3Outcome {
            data_ready: resp.data_ready,
            source: L3Source::Memory,
        }
    }

    fn writeback(&mut self, core: CoreId, addr: Address, now: Cycle) {
        let slice = &mut self.slices[core];
        if slice.probe(addr) {
            slice.fill(addr, true, core); // merge the dirty bit
        } else {
            self.memory.writeback(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> PrivateL3 {
        let cfg = MachineConfig::baseline();
        PrivateL3::new(&cfg, cfg.l3.private)
    }

    fn c(i: u8) -> CoreId {
        CoreId::from_index(i)
    }

    #[test]
    fn hit_costs_14_cycles() {
        let mut p = sys();
        let a = Address::new(0x1000);
        p.access(c(0), a, false, Cycle::new(0));
        let out = p.access(c(0), a, false, Cycle::new(500));
        assert_eq!(out.source, L3Source::LocalHit);
        assert_eq!(out.data_ready.raw(), 514);
    }

    #[test]
    fn miss_uses_private_first_chunk() {
        let mut p = sys();
        let out = p.access(c(0), Address::new(0x1000), false, Cycle::new(0));
        assert_eq!(out.source, L3Source::Memory);
        assert_eq!(out.data_ready.raw(), 258);
    }

    #[test]
    fn slices_are_isolated() {
        let mut p = sys();
        let a = Address::new(0x1000);
        p.access(c(0), a, false, Cycle::new(0));
        // Same address from core 1 misses: no sharing whatsoever.
        let out = p.access(c(1), a, false, Cycle::new(500));
        assert_eq!(out.source, L3Source::Memory);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let cfg = MachineConfig::baseline();
        // Tiny slice: 1 set x 2 ways.
        let geom = CacheGeometry::new(128, 2, 64, 14).unwrap();
        let mut p = PrivateL3::new(&cfg, geom);
        p.access(c(0), Address::new(0x000), true, Cycle::new(0));
        p.access(c(0), Address::new(0x040), false, Cycle::new(1000));
        let before = p.memory_stats().busy_cycles;
        p.access(c(0), Address::new(0x080), false, Cycle::new(2000)); // evicts dirty 0x000
        assert!(
            p.memory_stats().busy_cycles > before + 32,
            "writeback occupied the bus"
        );
    }

    #[test]
    fn l2_writeback_to_absent_block_goes_to_memory() {
        let mut p = sys();
        let before = p.memory_stats().busy_cycles;
        p.writeback(c(0), Address::new(0x9000), Cycle::new(0));
        assert_eq!(p.memory_stats().busy_cycles, before + 32);
    }

    #[test]
    fn l2_writeback_to_resident_block_stays_on_chip() {
        let mut p = sys();
        let a = Address::new(0x1000);
        p.access(c(0), a, false, Cycle::new(0));
        let busy = p.memory_stats().busy_cycles;
        p.writeback(c(0), a, Cycle::new(100));
        assert_eq!(p.memory_stats().busy_cycles, busy, "no bus traffic");
    }
}
