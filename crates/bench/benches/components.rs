//! Micro-benchmarks of the simulator's hot components: how fast each
//! substrate runs, which bounds how much simulated time the figure
//! harness can afford.

// Bench harness: failing fast on setup errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cachesim::cache::Cache;
use cachesim::lru::{LruStack, PackedLru};
use cpusim::branch::BranchPredictor;
use cpusim::core::Core;
use cpusim::l3iface::{FixedLatencyL3, LastLevel};
use nuca_core::cmp::Cmp;
use nuca_core::engine::AdaptiveParams;
use nuca_core::l3::{AdaptiveL3, Organization};
use simcore::config::{BranchConfig, CacheGeometry, MachineConfig};
use simcore::rng::SimRng;
use simcore::types::{Address, CoreId, Cycle};
use tracegen::spec::SpecApp;
use tracegen::workload::Mix;
use tracegen::TraceGenerator;

fn bench_lru_stack(c: &mut Criterion) {
    c.bench_function("lru_stack_touch_16way", |b| {
        let mut s = LruStack::with_ways(16);
        let mut i = 0u8;
        b.iter(|| {
            i = (i + 7) % 16;
            s.touch(black_box(i));
        });
    });
    // The packed u64 permutation word against the Vec reference above:
    // same access pattern, so the two lines are directly comparable.
    c.bench_function("packed_lru_touch_16way", |b| {
        let mut s = PackedLru::with_ways(16);
        let mut i = 0u8;
        b.iter(|| {
            i = (i + 7) % 16;
            s.touch(black_box(i));
        });
    });
    c.bench_function("packed_lru_victim_walk_16way", |b| {
        let mut s = PackedLru::with_ways(16);
        b.iter(|| {
            let victim = s.pop_lru().unwrap();
            s.push_mru(black_box(victim));
            victim
        });
    });
}

fn bench_cache_access(c: &mut Criterion) {
    c.bench_function("l1d_access_hit", |b| {
        let geom = CacheGeometry::new(64 * 1024, 2, 64, 3).unwrap();
        let mut cache = Cache::new(geom);
        let core = CoreId::from_index(0);
        cache.fill(Address::new(0x1000), false, core);
        b.iter(|| cache.access(black_box(Address::new(0x1000)), false, core));
    });
    c.bench_function("l2_access_random_mix", |b| {
        let geom = CacheGeometry::new(256 * 1024, 4, 64, 9).unwrap();
        let mut cache = Cache::new(geom);
        let core = CoreId::from_index(0);
        let mut rng = SimRng::seed_from(1);
        b.iter(|| {
            let a = Address::new(rng.below(1 << 20));
            if !cache.access(a, false, core).is_hit() {
                cache.fill(a, false, core);
            }
        });
    });
}

fn bench_branch_predictor(c: &mut Criterion) {
    c.bench_function("combined_predictor_access", |b| {
        let mut bp = BranchPredictor::new(BranchConfig::default());
        let mut rng = SimRng::seed_from(2);
        b.iter(|| {
            let pc = Address::new(0x40_0000 + rng.below(256) * 4);
            bp.access(black_box(pc), rng.chance(0.7))
        });
    });
}

fn bench_trace_generator(c: &mut Criterion) {
    c.bench_function("tracegen_next_op", |b| {
        let mut gen = TraceGenerator::new(SpecApp::Gzip.profile(), SimRng::seed_from(3));
        b.iter(|| black_box(gen.next_op()));
    });
}

fn bench_adaptive_l3(c: &mut Criterion) {
    c.bench_function("adaptive_l3_access", |b| {
        let cfg = MachineConfig::baseline();
        let mut l3 = AdaptiveL3::new(&cfg, AdaptiveParams::default());
        let mut rng = SimRng::seed_from(4);
        let mut now = 0u64;
        b.iter(|| {
            now += 10;
            let core = CoreId::from_index(rng.below(4) as u8);
            let a = Address::new(rng.below(1 << 24)).with_asid(core.asid());
            l3.access(core, a, false, Cycle::new(now))
        });
    });
}

fn bench_adaptive_l3_evict_heavy(c: &mut Criterion) {
    // Pin the miss/eviction path: a prefilled cache fed a wide address
    // stream so almost every access runs owned_count + find_victim +
    // install. This is the path the incremental per-core occupancy
    // counters (`AdaptiveSet::owned`/`filled`) accelerate: before the
    // counters this measured 239 ns/iter (and adaptive_l3_access
    // 224 ns); with them, 189 ns (183 ns) on the same host — a ~21%
    // cut on the eviction path. The shadow probes below were already a
    // single compare (34/36 ns before and after); the flat tag array
    // removes the Option discriminant and halves the table footprint.
    c.bench_function("adaptive_l3_evict_heavy", |b| {
        let cfg = MachineConfig::baseline();
        let mut l3 = AdaptiveL3::new(&cfg, AdaptiveParams::default());
        let mut rng = SimRng::seed_from(7);
        let mut now = 0u64;
        // Fill every set so the steady state is eviction-per-miss.
        for _ in 0..300_000 {
            now += 10;
            let core = CoreId::from_index(rng.below(4) as u8);
            let a = Address::new(rng.below(1 << 30)).with_asid(core.asid());
            l3.access(core, a, false, Cycle::new(now));
        }
        b.iter(|| {
            now += 10;
            let core = CoreId::from_index(rng.below(4) as u8);
            let a = Address::new(rng.below(1 << 30)).with_asid(core.asid());
            l3.access(core, a, false, Cycle::new(now))
        });
    });
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // The zero-cost-when-off claim, measured. Both benches drive the
    // same eviction-heavy stream as `adaptive_l3_evict_heavy`; the
    // `_off` variant must sit within noise of that baseline (189 ns/iter
    // on the reference host) because `NullSink::ENABLED == false` lets
    // the compiler delete every emission site. The `_on` variant prices
    // a live `Recorder` ring: the paid cost when tracing is requested.
    fn drive<S: telemetry::Sink>(c: &mut Criterion, name: &str, sink: S) {
        c.bench_function(name, |b| {
            let cfg = MachineConfig::baseline();
            let mut l3 = AdaptiveL3::with_sink(&cfg, AdaptiveParams::default(), sink.clone());
            let mut rng = SimRng::seed_from(7);
            let mut now = 0u64;
            for _ in 0..300_000 {
                now += 10;
                let core = CoreId::from_index(rng.below(4) as u8);
                let a = Address::new(rng.below(1 << 30)).with_asid(core.asid());
                l3.access(core, a, false, Cycle::new(now));
            }
            b.iter(|| {
                now += 10;
                let core = CoreId::from_index(rng.below(4) as u8);
                let a = Address::new(rng.below(1 << 30)).with_asid(core.asid());
                l3.access(core, a, false, Cycle::new(now))
            });
        });
    }
    drive(c, "telemetry_overhead_off_null_sink", telemetry::NullSink);
    drive(
        c,
        "telemetry_overhead_on_recorder",
        telemetry::Recorder::with_capacity(telemetry::Recorder::DEFAULT_CAPACITY),
    );
}

fn bench_shadow_tags(c: &mut Criterion) {
    use cachesim::shadow::ShadowTags;
    use simcore::types::BlockAddr;
    // The per-miss shadow probe (§4.6): one register load + compare in
    // the flat per-core tag array, at the paper's 1/16 sampling.
    c.bench_function("shadow_probe_check_miss", |b| {
        let mut st = ShadowTags::new(4096, 4, 4);
        let mut rng = SimRng::seed_from(8);
        for set in 0..256usize {
            for core in 0..4u8 {
                st.record_eviction(set, CoreId::from_index(core), BlockAddr::new(set as u64));
            }
        }
        b.iter(|| {
            let set = rng.below(4096) as usize;
            let core = CoreId::from_index(rng.below(4) as u8);
            st.check_miss(black_box(set), core, BlockAddr::new(rng.below(512)))
        });
    });
    c.bench_function("shadow_record_eviction", |b| {
        let mut st = ShadowTags::new(4096, 4, 4);
        let mut rng = SimRng::seed_from(9);
        b.iter(|| {
            let set = rng.below(256) as usize;
            let core = CoreId::from_index(rng.below(4) as u8);
            st.record_eviction(black_box(set), core, BlockAddr::new(rng.below(1 << 20)));
        });
    });
}

fn bench_core_cycle(c: &mut Criterion) {
    c.bench_function("core_step_cycle", |b| {
        let cfg = MachineConfig::baseline();
        b.iter_batched(
            || {
                let gen = TraceGenerator::new(SpecApp::Gzip.profile(), SimRng::seed_from(5));
                (
                    Core::new(CoreId::from_index(0), &cfg, gen),
                    FixedLatencyL3::new(19),
                )
            },
            |(mut core, mut l3)| {
                for n in 0..1_000u64 {
                    core.step(Cycle::new(n), &mut l3);
                }
                core.committed()
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("core_warm_op", |b| {
        let cfg = MachineConfig::baseline();
        let gen = TraceGenerator::new(SpecApp::Gzip.profile(), SimRng::seed_from(6));
        let mut core = Core::new(CoreId::from_index(0), &cfg, gen);
        let mut l3 = FixedLatencyL3::new(19);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            core.warm_op(Cycle::new(now), &mut l3);
        });
    });
}

fn bench_swar_probe(c: &mut Criterion) {
    use cachesim::swar::{digest, TagFilter};
    // One 16-way set probe, the inner loop of every cache lookup. The
    // scalar line compares all 16 tags; the SWAR line asks the digest
    // filter for a candidate mask first (one XOR-multiply over packed
    // bytes) and only compares the surviving ways — usually zero or one.
    // The two must pick the same way (pinned by the proptest suite).
    const WAYS: usize = 16;
    let mut rng = SimRng::seed_from(10);
    let mut tags = [0u64; WAYS];
    let mut filter = TagFilter::new(1, WAYS);
    for (w, tag) in tags.iter_mut().enumerate() {
        *tag = rng.below(1 << 30);
        filter.record(0, w, digest(*tag));
    }
    // 1-in-4 probes hit; the rest miss, which is where the filter's
    // early-out pays (no tag compares at all on most misses).
    let probes: Vec<u64> = (0..1024usize)
        .map(|i| {
            if i % 4 == 0 {
                tags[(i / 4) % WAYS]
            } else {
                rng.below(1 << 30)
            }
        })
        .collect();
    c.bench_function("swar_probe_16way", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % probes.len();
            let t = black_box(probes[i]);
            let mut mask = filter.candidates(0, digest(t));
            let mut found = None;
            while mask != 0 {
                let w = mask.trailing_zeros() as usize;
                if tags[w] == t {
                    found = Some(w);
                    break;
                }
                mask &= mask - 1;
            }
            found
        });
    });
    c.bench_function("scalar_probe_16way", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % probes.len();
            let t = black_box(probes[i]);
            let mut found = None;
            for (w, &tag) in tags.iter().enumerate() {
                if tag == t {
                    found = Some(w);
                    break;
                }
            }
            found
        });
    });
}

/// Steps every cycle of a 20k-cycle window: the reference semantics
/// `Cmp::run`'s event skipping reproduces.
fn step_window(cmp: &mut Cmp) {
    for _ in 0..20_000 {
        cmp.step();
    }
}

fn bench_cycle_skip(c: &mut Criterion) {
    // The event-driven run loop against stepping every cycle on the same
    // warmed chip: the gap between these two lines is exactly what
    // skipping buys on stall-heavy windows. With every cycle stepped,
    // the core-side hit path (TLB and L1 accesses served by their memos)
    // dominates, so the stepping side also runs as `core_step_hit`, the
    // name the CI bench step filters on.
    let cfg = MachineConfig::baseline();
    let mix = Mix {
        apps: vec![SpecApp::Ammp, SpecApp::Mcf, SpecApp::Swim, SpecApp::Applu],
        forwards: vec![0; 4],
    };
    let run_window: fn(&mut Cmp) = |cmp| cmp.run(20_000);
    for (name, advance) in [
        ("cmp_run_window_skip", run_window),
        ("cmp_run_window_step", step_window),
        ("core_step_hit", step_window),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut cmp = Cmp::new(&cfg, Organization::Shared, &mix, 42).unwrap();
                    cmp.warm(2_000);
                    cmp
                },
                |mut cmp| {
                    advance(&mut cmp);
                    cmp.now()
                },
                BatchSize::SmallInput,
            );
        });
    }
}

fn bench_functional_window(c: &mut Criterion) {
    // The functional-warming gap engine against the detailed run loop
    // on the same warmed chip and the same 20k-cycle window: the gap
    // between `functional_window` and `cmp_run_window_skip` (above) is
    // what each cycle of time-sampling gap buys over detailed
    // simulation.
    let cfg = MachineConfig::baseline();
    let mix = Mix {
        apps: vec![SpecApp::Ammp, SpecApp::Mcf, SpecApp::Swim, SpecApp::Applu],
        forwards: vec![0; 4],
    };
    c.bench_function("functional_window", |b| {
        b.iter_batched(
            || {
                let mut cmp = Cmp::new(&cfg, Organization::Shared, &mix, 42).unwrap();
                cmp.warm(2_000);
                cmp
            },
            |mut cmp| {
                cmp.run_functional(20_000);
                cmp.now()
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_lru_stack,
    bench_cache_access,
    bench_branch_predictor,
    bench_trace_generator,
    bench_adaptive_l3,
    bench_adaptive_l3_evict_heavy,
    bench_telemetry_overhead,
    bench_shadow_tags,
    bench_core_cycle,
    bench_swar_probe,
    bench_cycle_skip,
    bench_functional_window
);
criterion_main!(benches);
