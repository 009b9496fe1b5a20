//! The benchmark's workloads: which cells (mix × organization) a run
//! simulates and with which phase lengths.
//!
//! Every workload uses the phase lengths of `perf`'s full matrix
//! (`ExperimentConfig::default().scaled(20, 100)`): 600k functionally
//! warmed instructions per core, a 200k-cycle warm-up window and a
//! 300k-cycle measured window. Mixes are balanced (see
//! [`balanced_mixes`]) so that every seed runs the same apps.

use nuca_core::experiment::ExperimentConfig;
use nuca_core::l3::Organization;
use simcore::config::MachineConfig;
use simcore::rng::SimRng;
use tracegen::spec::SpecApp;
use tracegen::workload::{Mix, WorkloadPool};

/// The time-sampling schedule `perf` runs: detailed cycles, then gap
/// cycles.
pub const TIME_SAMPLE: (u64, u64) = (10_000, 40_000);

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LLC-intensive mixes under private, shared and adaptive L3s.
    MissHeavy,
    /// L1/L2-resident mixes under the adaptive L3.
    HitHeavy,
    /// The miss-heavy mixes under the adaptive L3, time-sampled.
    TimeSampled,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MissHeavy,
        Workload::HitHeavy,
        Workload::TimeSampled,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MissHeavy => "miss-heavy",
            Workload::HitHeavy => "hit-heavy",
            Workload::TimeSampled => "time-sampled",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One simulation cell: a mix run under one L3 organization.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The L3 organization.
    pub org: Organization,
    /// The four applications and their fast-forwards.
    pub mix: Mix,
}

/// Everything a run of one workload simulates.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The simulated machine (Table 1 baseline).
    pub machine: MachineConfig,
    /// Phase lengths, the time-sampling schedule and the seed of the
    /// per-core streams.
    pub exp: ExperimentConfig,
    /// The cells of one round, in run order.
    pub cells: Vec<Cell>,
}

impl Plan {
    /// Builds the cells of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        Plan::with_config(
            workload,
            seed,
            ExperimentConfig::default().scaled(20, 100),
            4,
        )
    }

    /// Builds `workload` with explicit phase lengths and at most `mixes`
    /// mixes (tests use a tiny configuration).
    pub fn with_config(
        workload: Workload,
        seed: u64,
        base: ExperimentConfig,
        mixes: usize,
    ) -> Plan {
        let machine = MachineConfig::baseline();
        let base = ExperimentConfig { seed, ..base };
        let intensive = SpecApp::intensive_pool();
        let (pool, orgs, exp) = match workload {
            Workload::MissHeavy => (
                intensive,
                vec![
                    Organization::Private,
                    Organization::Shared,
                    Organization::adaptive(),
                ],
                base,
            ),
            Workload::HitHeavy => {
                let light: Vec<SpecApp> = SpecApp::ALL
                    .into_iter()
                    .filter(|a| !a.is_llc_intensive())
                    .collect();
                (light, vec![Organization::adaptive()], base)
            }
            Workload::TimeSampled => (
                intensive,
                vec![Organization::adaptive()],
                base.with_time_sample(Some(TIME_SAMPLE)).scaled_warm(5, 8),
            ),
        };
        let mixes = balanced_mixes(&pool, machine.cores, mixes, seed);
        let cells = orgs
            .iter()
            .flat_map(|&org| {
                mixes.iter().map(move |mix| Cell {
                    org,
                    mix: mix.clone(),
                })
            })
            .collect();
        Plan {
            machine,
            exp,
            cells,
        }
    }

    /// Simulated cycles in one cell's timed phase (warm-up plus measured
    /// windows; detailed plus gap cycles when time-sampled).
    pub fn timed_cycles(&self) -> u64 {
        self.exp.warmup_cycles + self.exp.measure_cycles
    }
}

/// `n` mixes of `cores` apps that run every app of `pool` equally often:
/// shuffled copies of the pool, cut into consecutive mixes, each core
/// with a random fast-forward drawn as `WorkloadPool::random_mixes` draws
/// it. The seed decides which apps share a chip, their fast-forwards and
/// (through `Cmp::new`) every trace stream; the multiset of apps a round
/// runs stays fixed, so two seeds compare the same work.
pub fn balanced_mixes(pool: &[SpecApp], cores: usize, n: usize, seed: u64) -> Vec<Mix> {
    let mut rng = SimRng::seed_from(seed);
    let mut apps = Vec::with_capacity(n * cores + pool.len());
    while apps.len() < n * cores && !pool.is_empty() {
        let mut copy = pool.to_vec();
        rng.shuffle(&mut copy);
        apps.extend(copy);
    }
    apps.chunks_exact(cores.max(1))
        .take(n)
        .map(|chunk| Mix {
            apps: chunk.to_vec(),
            forwards: chunk
                .iter()
                .map(|_| rng.range(WorkloadPool::FORWARD_MIN, WorkloadPool::FORWARD_MAX))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
impl Plan {
    /// A one-mix plan with phases short enough for unit tests.
    pub fn tiny(workload: Workload, seed: u64) -> Plan {
        let exp = ExperimentConfig {
            warm_instructions: 4_000,
            warmup_cycles: 2_000,
            measure_cycles: 3_000,
            ..ExperimentConfig::default()
        };
        Plan::with_config(workload, seed, exp, 1)
    }
}
