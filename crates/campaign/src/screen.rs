//! The analytical screening pass: prune grid cells that are Pareto-
//! dominated before paying for their simulation.
//!
//! Screening compares cells *running the same workload* — same
//! `(mix_seed, mix_index)` — using the closed-form
//! [`nuca_core::cost::screening_estimate`] price: storage bits and
//! modeled miss-service latency. A cell is pruned when some other cell
//! of its workload class is no worse on both and strictly better on
//! one. Pruning is never silent: every pruned cell gets a manifest
//! line naming its dominator and both price tags, and the runner
//! reports the pruned list through its event stream.
//!
//! The pass is global (it sees the whole grid, not one shard's slice),
//! so every shard of a campaign computes the identical pruned set.

use nuca_core::cost::{screening_estimate, ScreeningEstimate};

use crate::grid::{machine_for, organization_for, Cell};
use crate::spec::CampaignSpec;
use crate::CampaignError;

/// The screening verdict for one pruned cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pruned {
    /// The pruned cell's grid index.
    pub cell: usize,
    /// The dominating cell's grid index (lowest such index).
    pub dominated_by: usize,
    /// The pruned cell's price.
    pub estimate: ScreeningEstimate,
    /// The dominator's price.
    pub dominator: ScreeningEstimate,
}

/// Prices every cell and returns the pruned ones, sorted by cell
/// index. Cells in different workload classes never compare.
///
/// # Errors
///
/// [`CampaignError::Config`] if a cell's machine cannot be built.
pub fn screen(spec: &CampaignSpec, cells: &[Cell]) -> Result<Vec<Pruned>, CampaignError> {
    let mut estimates = Vec::with_capacity(cells.len());
    for cell in cells {
        let machine = machine_for(cell)?;
        let org = organization_for(cell, spec.seed);
        estimates.push(screening_estimate(&machine, &org));
    }
    let same_class = |a: &Cell, b: &Cell| a.mix_seed == b.mix_seed && a.mix_index == b.mix_index;
    let mut pruned = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let verdict = cells.iter().enumerate().find(|(j, other)| {
            *j != i && same_class(cell, other) && estimates[*j].dominates(&estimates[i])
        });
        if let Some((j, _)) = verdict {
            pruned.push(Pruned {
                cell: cell.index,
                dominated_by: cells[j].index,
                estimate: estimates[i],
                dominator: estimates[j],
            });
        }
    }
    Ok(pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axes, LatPair, OrgKind};

    /// A latency sweep: the slower latency pair is dominated at equal
    /// storage, the larger capacity survives (more storage, better
    /// latency).
    fn sweep_spec() -> CampaignSpec {
        CampaignSpec {
            mixes: 2,
            screen: true,
            axes: Axes {
                organization: vec![OrgKind::Shared],
                l3_latency: vec![
                    LatPair {
                        private: 14,
                        shared: 19,
                    },
                    LatPair {
                        private: 16,
                        shared: 24,
                    },
                ],
                ..Axes::default()
            },
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn slower_latency_points_are_pruned_per_workload() {
        let spec = sweep_spec();
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        let pruned = screen(&spec, &cells).unwrap();
        // Cells 2 and 3 (the 16/24 pair) are dominated by 0 and 1.
        assert_eq!(pruned.len(), 2);
        assert_eq!((pruned[0].cell, pruned[0].dominated_by), (2, 0));
        assert_eq!((pruned[1].cell, pruned[1].dominated_by), (3, 1));
        assert!(pruned[0].dominator.modeled_latency < pruned[0].estimate.modeled_latency);
    }

    #[test]
    fn pareto_frontier_survives() {
        let mut spec = sweep_spec();
        spec.axes.l3_latency = vec![LatPair {
            private: 14,
            shared: 19,
        }];
        spec.axes.l3_mb = vec![4, 8];
        let cells = spec.cells();
        // Bigger cache: more storage, better modeled latency — a
        // Pareto frontier with nothing dominated.
        assert!(screen(&spec, &cells).unwrap().is_empty());
    }

    #[test]
    fn different_mixes_never_compare() {
        let spec = sweep_spec();
        let cells = spec.cells();
        let pruned = screen(&spec, &cells).unwrap();
        for p in &pruned {
            let a = cells[p.cell];
            let b = cells[p.dominated_by];
            assert_eq!(a.mix_index, b.mix_index);
            assert_eq!(a.mix_seed, b.mix_seed);
        }
    }
}
