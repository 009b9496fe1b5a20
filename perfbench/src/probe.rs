//! Host-speed probe: a fixed loop with no simulator code in it, timed
//! before and after every run so host drift shows in the data.
//!
//! The loop is an xorshift-indexed read-modify-write over a 1 MiB table,
//! which is sensitive to the same memory-system slowdowns the simulator
//! is. It normalizes nothing; it only records how fast the host was.

use std::hint::black_box;
use std::time::Instant;

/// Table size in 32-bit words (1 MiB).
const WORDS: usize = 1 << 18;
/// Iterations per timed pass.
const ITERS: u64 = 1 << 21;
/// Timed passes; the median is reported.
const PASSES: usize = 5;

/// Median ns per probe iteration over [`PASSES`] passes.
pub fn probe_ns() -> f64 {
    let mut table = vec![0u32; WORDS];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut passes = [0.0f64; PASSES];
    for p in &mut passes {
        let t = Instant::now();
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (WORDS - 1);
            table[i] = table[i].wrapping_add(x as u32);
        }
        *p = t.elapsed().as_nanos() as f64 / ITERS as f64;
        black_box(&table);
    }
    passes.sort_by(f64::total_cmp);
    passes[PASSES / 2]
}
