//! The interface between a core's private hierarchy and the last-level
//! cache organization under study.
//!
//! The paper evaluates several last-level organizations (private, shared,
//! adaptive NUCA, cooperative). Cores are agnostic: they hand every L2
//! miss to a [`LastLevel`] implementation, which decides where the block
//! lives, what latency the requester pays and when main memory gets
//! involved. The organizations themselves live in the `nuca-core` crate.

use simcore::types::{Address, CoreId, Cycle};

/// Where a last-level request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L3Source {
    /// Hit in the requester's private partition / local slice
    /// (14 cycles in Table 1).
    LocalHit,
    /// Hit in the shared partition or a neighboring slice (19 cycles).
    RemoteHit,
    /// Miss — served by main memory.
    Memory,
}

/// Timing and provenance of one last-level access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L3Outcome {
    /// Absolute cycle at which the requested data is available.
    pub data_ready: Cycle,
    /// Where the data came from.
    pub source: L3Source,
}

/// A last-level cache organization serving L2 misses from all cores.
///
/// Implementations update their own replacement/partitioning state and
/// call into the shared memory channel on misses. `addr` arrives already
/// tagged with the requester's address-space identifier, so distinct
/// programs never alias.
pub trait LastLevel {
    /// Serves an L2 miss by `core` for `addr` at time `now`.
    fn access(&mut self, core: CoreId, addr: Address, write: bool, now: Cycle) -> L3Outcome;

    /// Accepts a dirty block evicted from `core`'s L2.
    fn writeback(&mut self, core: CoreId, addr: Address, now: Cycle);
}

/// A fixed-latency, always-hit pseudo-L3 for unit tests and pipeline
/// micro-benchmarks.
///
/// # Example
///
/// ```
/// use cpusim::l3iface::{FixedLatencyL3, LastLevel, L3Source};
/// use simcore::types::{Address, CoreId, Cycle};
///
/// let mut l3 = FixedLatencyL3::new(19);
/// let out = l3.access(CoreId::from_index(0), Address::new(0x40), false, Cycle::new(10));
/// assert_eq!(out.data_ready, Cycle::new(29));
/// assert_eq!(out.source, L3Source::RemoteHit);
/// ```
#[derive(Debug, Clone)]
pub struct FixedLatencyL3 {
    latency: u64,
    accesses: u64,
    writebacks: u64,
}

impl FixedLatencyL3 {
    /// Creates an always-hit L3 with the given latency.
    pub fn new(latency: u64) -> Self {
        FixedLatencyL3 {
            latency,
            accesses: 0,
            writebacks: 0,
        }
    }

    /// Number of accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of write-backs absorbed.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }
}

impl LastLevel for FixedLatencyL3 {
    fn access(&mut self, _core: CoreId, _addr: Address, _write: bool, now: Cycle) -> L3Outcome {
        self.accesses += 1;
        L3Outcome {
            data_ready: now + self.latency,
            source: L3Source::RemoteHit,
        }
    }

    fn writeback(&mut self, _core: CoreId, _addr: Address, _now: Cycle) {
        self.writebacks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_counts_and_times() {
        let mut l3 = FixedLatencyL3::new(5);
        let c = CoreId::from_index(1);
        let out = l3.access(c, Address::new(0), true, Cycle::new(100));
        assert_eq!(out.data_ready.raw(), 105);
        l3.writeback(c, Address::new(0x40), Cycle::new(101));
        assert_eq!(l3.accesses(), 1);
        assert_eq!(l3.writebacks(), 1);
    }
}
