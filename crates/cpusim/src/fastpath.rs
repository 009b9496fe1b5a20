//! The fused TLB+L1 walk of the functional (warm / gap / drain) path.
//!
//! Warm-up, time-sampling gaps and pipeline drains owe no timing, so
//! each instruction- or data-side access resolves the TLB and the L1 in
//! one pass: [`functional_walk`] probes each structure once — TLB
//! residency via [`Tlb::lookup`], the L1 way via
//! [`Cache::peek_hit_way`], each served by its own last-hit memo — and
//! commits the matching hit *or* miss side in place, so the
//! majority-miss warm stream never pays a duplicated lookup.
//!
//! Exactness argument: pages are unique within a TLB and block addresses
//! are unique within a cache set, so the memo-served lookups answer
//! exactly what a linear scan answers; [`Tlb::access`] is literally
//! `lookup` then `commit_hit`/`miss_install`, and [`Cache::access`] is
//! literally `peek_hit_way` then `commit_hit_at`/`note_miss`, so the
//! walk leaves both structures in the byte-identical states of the
//! sequential reference walk. The detailed pipeline calls
//! [`Tlb::access`] / [`Cache::access`] directly.
//!
//! This module is covered by the L7/D4 hot-path lint passes.

use cachesim::cache::Cache;
use simcore::types::Address;

use crate::tlb::Tlb;

/// Outcome counters of [`functional_walk`] for one core (warm-up, gaps
/// and drains; the detailed pipeline does not count). These feed the
/// perf attribution side channel only — they are **not** part of
/// [`CoreStats`](crate::core::CoreStats) and never reach rendered
/// results, traces or snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Data-side functional walks that hit the L1D.
    pub data_fast_hits: u64,
    /// Data-side functional walks that missed the L1D.
    pub data_slow: u64,
    /// Instruction-side functional walks (one per fetch block) that hit
    /// the L1I.
    pub inst_fast_hits: u64,
    /// Instruction-side functional walks that missed the L1I.
    pub inst_slow: u64,
}

impl FastPathStats {
    /// Accumulates another core's counters (chip-level aggregation).
    pub fn absorb(&mut self, other: FastPathStats) {
        self.data_fast_hits += other.data_fast_hits;
        self.data_slow += other.data_slow;
        self.inst_fast_hits += other.inst_fast_hits;
        self.inst_slow += other.inst_slow;
    }

    /// Fraction of functional walks (both sides) that hit the L1.
    pub fn fast_fraction(&self) -> f64 {
        let fast = self.data_fast_hits + self.inst_fast_hits;
        let total = fast + self.data_slow + self.inst_slow;
        if total == 0 {
            0.0
        } else {
            fast as f64 / total as f64
        }
    }
}

/// The fused TLB+L1 *walk* for the functional (warm / gap /
/// pipeline-drain) path: probes each structure exactly once and commits
/// the matching side — hit or miss — immediately. Returns `true` iff the
/// L1 hit; on `false` the caller owes only the L2-and-beyond reference
/// sequence (plus the L1 fill), never a TLB or L1 re-probe.
///
/// Exactness: [`Tlb::access`] is literally `lookup` then
/// `commit_hit`/`miss_install`, and [`Cache::access`] is literally
/// `peek_hit_way` then `commit_hit_at`/`note_miss` — this walk performs
/// the same statements in the same order, so the two structures end in
/// the byte-identical states the sequential reference walk produces,
/// for all four hit/miss combinations.
#[inline]
pub fn functional_walk(tlb: &mut Tlb, l1: &mut Cache, addr: Address, write: bool) -> bool {
    match tlb.lookup(addr) {
        Some(slot) => tlb.commit_hit(slot),
        None => tlb.miss_install(addr),
    }
    match l1.peek_hit_way(addr) {
        Some(way) => {
            let _ = l1.commit_hit_at(addr, way, write);
            true
        }
        None => {
            l1.note_miss();
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::config::{CacheGeometry, TlbConfig};
    use simcore::rng::SimRng;
    use simcore::types::CoreId;

    fn parts() -> (Tlb, Cache) {
        (
            Tlb::new(TlbConfig {
                entries: 16,
                miss_penalty: 30,
            }),
            Cache::new(CacheGeometry::new(4096, 4, 64, 1).unwrap()),
        )
    }

    #[test]
    fn functional_walk_equals_sequential_reference() {
        // Twin-state check of the commit-on-every-outcome walk: a random
        // stream (page space sized to exercise all four TLB×L1 hit/miss
        // combinations) must leave both structures byte-identical to the
        // sequential `tlb.access` → `l1.access` reference.
        let mut rng = SimRng::seed_from(11);
        let (mut ft, mut fc) = parts();
        let (mut rt, mut rc) = parts();
        let core = CoreId::from_index(0);
        let mut outcomes = [0u64; 4];
        for i in 0..30_000 {
            let addr = Address::new(rng.below(1 << 18) & !7);
            let write = rng.chance(0.3);
            // Walk side: L1 miss owes only the fill.
            let walk_hit = functional_walk(&mut ft, &mut fc, addr, write);
            if !walk_hit {
                fc.fill(addr, write, core);
            }
            // Reference side.
            let tlb_hit = rt.access(addr);
            let l1_hit = rc.access(addr, write, core).is_hit();
            if !l1_hit {
                rc.fill(addr, write, core);
            }
            assert_eq!(walk_hit, l1_hit, "op {i}");
            outcomes[(tlb_hit as usize) << 1 | l1_hit as usize] += 1;
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "stream must cover all four TLB×L1 outcomes: {outcomes:?}"
        );
        assert_eq!((ft.hits(), ft.misses()), (rt.hits(), rt.misses()));
        assert_eq!(fc.stats(), rc.stats());
        let enc_tlb = |t: &Tlb| {
            let mut w = simcore::snapshot::SnapshotWriter::new();
            t.save_state(&mut w);
            w.finish()
        };
        let enc_cache = |c: &Cache| {
            let mut w = simcore::snapshot::SnapshotWriter::new();
            c.save_state(&mut w);
            w.finish()
        };
        assert_eq!(enc_tlb(&ft), enc_tlb(&rt));
        assert_eq!(enc_cache(&fc), enc_cache(&rc));
    }

    #[test]
    fn stats_aggregate_and_report() {
        let mut a = FastPathStats {
            data_fast_hits: 6,
            data_slow: 2,
            inst_fast_hits: 3,
            inst_slow: 1,
        };
        a.absorb(FastPathStats {
            data_fast_hits: 1,
            data_slow: 1,
            inst_fast_hits: 0,
            inst_slow: 2,
        });
        assert_eq!(a.data_fast_hits, 7);
        assert!((a.fast_fraction() - 10.0 / 16.0).abs() < 1e-12);
        assert_eq!(FastPathStats::default().fast_fraction(), 0.0);
    }
}
