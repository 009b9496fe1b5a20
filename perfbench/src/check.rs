//! Output checks for every simulated cell.
//!
//! A cell passes when the chip's structural audit is clean, its measured
//! window is well formed, and — for the seeds `digests.txt` records — its
//! [`CmpResult`] hashes to the recorded digest. Other seeds run with the
//! audit and window checks alone.

use nuca_core::cmp::CmpResult;
use simcore::invariant::Violation;

use crate::workload::Workload;

/// Digests recorded for the default seed and one held-out seed, one
/// `<workload> <seed> <cell> <hex digest>` line each.
const RECORDED: &str = include_str!("../digests.txt");

/// The held-out seed whose digests are recorded beside the default
/// seed's (2007).
#[cfg(test)]
pub const HELD_OUT_SEED: u64 = 1_000_003;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn bytes(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A digest of every simulated statistic in `r`, over an explicit field
/// list so that adding a field to `CmpResult` does not change it.
pub fn digest(r: &CmpResult) -> u64 {
    let mut h = Fnv::new();
    h.word(r.per_core.len() as u64);
    for (app, s) in &r.per_core {
        h.bytes(app);
        for w in [
            s.committed,
            s.cycles,
            s.l1i.hits,
            s.l1i.misses,
            s.l1d.hits,
            s.l1d.misses,
            s.l2.hits,
            s.l2.misses,
            s.l3_accesses,
            s.l3_local_hits,
            s.l3_remote_hits,
            s.l3_misses,
            s.branches,
            s.mispredicts,
            s.dtlb_misses,
            s.itlb_misses,
        ] {
            h.word(w);
        }
    }
    for v in &r.ipc {
        h.word(v.to_bits());
    }
    h.word(r.hmean_ipc.to_bits());
    h.word(r.amean_ipc.to_bits());
    h.word(r.memory.requests);
    h.word(r.memory.total_queue_delay);
    h.word(r.memory.busy_cycles);
    for q in r.quotas.iter().flatten() {
        h.word(u64::from(*q));
    }
    if let Some(ts) = &r.time_sampling {
        for w in [
            ts.detail,
            ts.gap,
            ts.windows,
            ts.detailed_cycles,
            ts.functional_cycles,
        ] {
            h.word(w);
        }
        h.word(ts.mean_window_hmean_ipc.to_bits());
        h.word(ts.hmean_ipc_std_error.to_bits());
    }
    h.0
}

/// The expected digests of one run: `Some(d)` per cell when the seed is
/// recorded, nothing otherwise.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    digests: Vec<Option<u64>>,
}

impl Expected {
    /// The recorded digests of `workload` at `seed` for a round of
    /// `cells` cells (empty when the seed is not recorded).
    pub fn recorded(workload: Workload, seed: u64, cells: usize) -> Expected {
        Expected::parse(RECORDED, workload, seed, cells)
    }

    /// Parses digest lines (see [`RECORDED`]); `#` comments and
    /// malformed lines are skipped.
    pub fn parse(text: &str, workload: Workload, seed: u64, cells: usize) -> Expected {
        let mut digests = vec![None; cells];
        let mut any = false;
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [w, s, c, d] = f.as_slice() else { continue };
            let (Ok(s), Ok(c), Ok(d)) = (
                s.parse::<u64>(),
                c.parse::<usize>(),
                u64::from_str_radix(d, 16),
            ) else {
                continue;
            };
            if *w == workload.name() && s == seed && c < cells {
                digests[c] = Some(d);
                any = true;
            }
        }
        if !any {
            digests.clear();
        }
        Expected { digests }
    }

    /// Whether this seed has recorded digests.
    pub fn is_recorded(&self) -> bool {
        !self.digests.is_empty()
    }

    /// The expected digest of cell `i`, if recorded.
    pub fn get(&self, i: usize) -> Option<u64> {
        self.digests.get(i).copied().flatten()
    }

    /// Flips one bit of cell `i`'s digest (the self-test's wrong digest).
    pub fn corrupt(&mut self, i: usize) {
        if let Some(Some(d)) = self.digests.get_mut(i) {
            *d ^= 1;
        }
    }
}

/// Checks one finished cell: audit violations, window shape and, when
/// `expected` is given, the digest. `Err` carries the reason.
pub fn check_cell(
    r: &CmpResult,
    violations: &[Violation],
    measure_cycles: u64,
    expected: Option<u64>,
) -> Result<(), String> {
    if !violations.is_empty() {
        return Err(format!(
            "audit: {} violation(s): {:?}",
            violations.len(),
            violations
        ));
    }
    if r.per_core.is_empty() || r.per_core.iter().any(|(_, s)| s.cycles != measure_cycles) {
        return Err(format!(
            "measured window is not {measure_cycles} cycles on every core"
        ));
    }
    if !(r.hmean_ipc.is_finite() && r.hmean_ipc > 0.0) {
        return Err(format!(
            "hmean IPC {} is not a positive number",
            r.hmean_ipc
        ));
    }
    if let Some(want) = expected {
        let got = digest(r);
        if got != want {
            return Err(format!("digest {got:016x} != recorded {want:016x}"));
        }
    }
    Ok(())
}
