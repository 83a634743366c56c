//! `ExchangeCopier`: a cached, reusable ghost-exchange plan.
//!
//! Building an exchange plan is O(n_grids²) box calculus (every grid's ghost
//! regions intersected against every other grid's valid region plus its
//! periodic images). The plan only depends on (layout, domain, nghost,
//! ncomp) — none of which change between solver steps — so recomputing it on
//! every [`crate::level_data::LevelData::exchange`] call dominates the cost
//! of the exchange itself once a level has more than a handful of grids.
//!
//! The copier caches the op list together with everything derived from it:
//!
//! * ops grouped by destination grid, so both phases run in parallel over
//!   grids (distinct destination fabs are disjoint storage) — one pool item
//!   per grid, not per op: an op moves a few dozen values, too little to
//!   pay for a claim on the pool's shared counter;
//! * per-op offsets into a single reusable pack buffer, so the pack phase
//!   writes disjoint slices of one scratch `Vec<f64>` (no per-op allocation,
//!   and in particular no full-fab clone for periodic self-copies);
//! * the pre-summed cross-rank byte count, which must equal the op-by-op
//!   accounting of the uncached path exactly.
//!
//! Execution is two-phase — pack every source region into the scratch
//! buffer, then scatter each slice into its destination fab. Every ghost
//! cell is written by exactly one op (ghost regions are disjoint by
//! construction, source valid boxes are disjoint, and the periodic preimage
//! of a cell is unique), so the phases are order-independent and the result
//! is bit-identical to the sequential direct-copy path. Both phases go to
//! the thread pool only above a volume threshold: a small exchange is over
//! before a parked worker has woken up.

use crate::domain::ProblemDomain;
use crate::fab::Fab;
use crate::intvect::IntVect;
use crate::layout::{BoxLayout, CopyOp, Grid};

/// Minimum total copy volume (in `f64` values) before the pack and scatter
/// phases use the thread pool. An exchange is two memory-bound passes, so a
/// second thread buys little and waking it costs a fixed ~10 µs a phase.
/// Measured on two hardware threads, 64 grids, serial against pooled: 31 k
/// values 87–136 µs against 167–217; 78 k values a tie (146–235 against
/// 149–254); 622 k values over 512 grids 3.2–4.0 ms against 2.6–3.3.
const PAR_THRESHOLD: usize = 1 << 16;

/// Compute the list of copies needed to fill every grid's ghost region from
/// other grids' valid regions, including periodic images.
///
/// This is the uncached planning primitive; [`ExchangeCopier::build`] caches
/// its result along with the derived execution schedule.
pub fn exchange_plan(layout: &BoxLayout, domain: &ProblemDomain, nghost: i64) -> Vec<CopyOp> {
    let mut ops = Vec::new();
    let n = layout.len();
    for dst in 0..n {
        let valid = layout.ibox(dst);
        let grown = domain.clip(&valid.grow(nghost));
        if grown == valid {
            continue;
        }
        let ghost_regions = grown.subtract(&valid);
        for src in 0..n {
            let src_valid = layout.ibox(src);
            for region in &ghost_regions {
                if src != dst {
                    // direct overlap
                    let direct = src_valid.intersect(region);
                    if !direct.is_empty() {
                        ops.push(CopyOp {
                            src,
                            dst,
                            region: direct,
                            shift: IntVect::ZERO,
                        });
                    }
                }
                // periodic images (a grid can feed its own ghosts via wrap)
                for s in domain.periodic_shifts(&src_valid, region) {
                    let img = src_valid.shift(s).intersect(region);
                    if !img.is_empty() {
                        ops.push(CopyOp {
                            src,
                            dst,
                            region: img,
                            shift: -s,
                        });
                    }
                }
            }
        }
    }
    ops
}

/// A cached ghost-exchange schedule for one (layout, domain, nghost, ncomp)
/// configuration, plus the reusable pack buffer that executes it.
#[derive(Debug, Default)]
pub struct ExchangeCopier {
    // Validity key: an exchange plan is a pure function of these four.
    grids: Vec<Grid>,
    nranks: usize,
    domain: Option<ProblemDomain>,
    nghost: i64,
    ncomp: usize,
    // The plan and its derived execution schedule.
    ops: Vec<CopyOp>,
    /// `op_offsets[k]..op_offsets[k + 1]` is op `k`'s slice of the scratch
    /// buffer, in `f64` units.
    op_offsets: Vec<usize>,
    /// Ops `dst_ops[g]..dst_ops[g + 1]` write fab `g` (the plan lists ops
    /// destination by destination).
    dst_ops: Vec<usize>,
    cross_rank_bytes: u64,
    scratch: Vec<f64>,
}

impl ExchangeCopier {
    /// Build the schedule for the given configuration.
    pub fn build(
        layout: &BoxLayout,
        domain: &ProblemDomain,
        nghost: i64,
        ncomp: usize,
    ) -> ExchangeCopier {
        let ops = exchange_plan(layout, domain, nghost);
        assert!(
            ops.windows(2).all(|w| w[0].dst <= w[1].dst),
            "exchange plan must list ops destination by destination"
        );
        let mut op_offsets = Vec::with_capacity(ops.len() + 1);
        let dst_ops = (0..=layout.len())
            .map(|g| ops.partition_point(|op| op.dst < g))
            .collect();
        let mut cross_rank_bytes = 0u64;
        let mut total = 0usize;
        for op in &ops {
            op_offsets.push(total);
            total += op.region.num_cells() as usize * ncomp;
            if layout.rank(op.src) != layout.rank(op.dst) {
                cross_rank_bytes +=
                    op.region.num_cells() * ncomp as u64 * std::mem::size_of::<f64>() as u64;
            }
        }
        op_offsets.push(total);
        ExchangeCopier {
            grids: layout.grids().to_vec(),
            nranks: layout.nranks(),
            domain: Some(*domain),
            nghost,
            ncomp,
            ops,
            op_offsets,
            dst_ops,
            cross_rank_bytes,
            scratch: Vec::new(),
        }
    }

    /// True if this copier was built for exactly this configuration.
    ///
    /// The check is exact (grid-by-grid), not a hash: it is O(n_grids)
    /// against the O(n_grids²) rebuild it guards, and false sharing of a
    /// stale plan would silently corrupt ghost data.
    pub fn matches(
        &self,
        layout: &BoxLayout,
        domain: &ProblemDomain,
        nghost: i64,
        ncomp: usize,
    ) -> bool {
        self.domain == Some(*domain)
            && self.nghost == nghost
            && self.ncomp == ncomp
            && self.nranks == layout.nranks()
            && self.grids == layout.grids()
    }

    /// The cached copy operations.
    pub fn ops(&self) -> &[CopyOp] {
        &self.ops
    }

    /// Bytes moved between distinct ranks per application of this plan.
    pub fn cross_rank_bytes(&self) -> u64 {
        self.cross_rank_bytes
    }

    /// Execute the cached plan against `fabs` (one fab per grid, in layout
    /// order), returning the cross-rank traffic in bytes.
    pub fn apply(&mut self, fabs: &mut [Fab]) -> u64 {
        assert_eq!(fabs.len(), self.grids.len(), "fab count != grid count");
        let total = *self.op_offsets.last().unwrap_or(&0);
        if total == 0 {
            return self.cross_rank_bytes;
        }
        if self.scratch.len() < total {
            self.scratch.resize(total, 0.0);
        }

        let ops = &self.ops;
        let op_offsets = &self.op_offsets;
        let dst_ops = &self.dst_ops;
        // The (index, op) pairs that write fab `g`.
        let ops_into = |g: usize| ops.iter().enumerate().take(dst_ops[g + 1]).skip(dst_ops[g]);
        let parallel = total >= PAR_THRESHOLD;

        // Phase 1: pack every source region into its disjoint scratch slice,
        // one destination grid's ops (a contiguous run of slices) at a time.
        {
            let sources: &[Fab] = fabs;
            let mut parts: Vec<&mut [f64]> = Vec::with_capacity(fabs.len());
            let mut rest = &mut self.scratch[..total];
            for g in 0..fabs.len() {
                let len = op_offsets[dst_ops[g + 1]] - op_offsets[dst_ops[g]];
                let (head, tail) = rest.split_at_mut(len);
                parts.push(head);
                rest = tail;
            }
            let pack = |g: usize, mut out: &mut [f64]| {
                for (k, op) in ops_into(g) {
                    let (head, tail) = out.split_at_mut(op_offsets[k + 1] - op_offsets[k]);
                    sources[op.src].pack_region(&op.region, op.shift, head);
                    out = tail;
                }
            };
            if parallel {
                use rayon::prelude::*;
                parts
                    .par_iter_mut()
                    .enumerate()
                    .for_each(|(g, out)| pack(g, out));
            } else {
                for (g, out) in parts.iter_mut().enumerate() {
                    pack(g, out);
                }
            }
        }

        // Phase 2: scatter each slice into its destination fab. Distinct
        // fabs are disjoint, so destinations proceed independently.
        let scratch = &self.scratch;
        let scatter = |g: usize, fab: &mut Fab| {
            for (k, op) in ops_into(g) {
                fab.unpack_region(&op.region, &scratch[op_offsets[k]..op_offsets[k + 1]]);
            }
        };
        if parallel {
            use rayon::prelude::*;
            fabs.par_iter_mut()
                .enumerate()
                .for_each(|(g, fab)| scatter(g, fab));
        } else {
            for (g, fab) in fabs.iter_mut().enumerate() {
                scatter(g, fab);
            }
        }

        self.cross_rank_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxes::IBox;

    fn layout_16(periodic: bool) -> (BoxLayout, ProblemDomain) {
        let domain = if periodic {
            ProblemDomain::periodic(IBox::cube(16))
        } else {
            ProblemDomain::new(IBox::cube(16))
        };
        (BoxLayout::decompose(&domain, 8, 4), domain)
    }

    #[test]
    fn plan_matches_freshly_built() {
        for periodic in [false, true] {
            let (layout, domain) = layout_16(periodic);
            let copier = ExchangeCopier::build(&layout, &domain, 2, 3);
            assert_eq!(copier.ops(), exchange_plan(&layout, &domain, 2));
            assert!(copier.matches(&layout, &domain, 2, 3));
            assert!(!copier.matches(&layout, &domain, 1, 3));
            assert!(!copier.matches(&layout, &domain, 2, 1));
        }
    }

    #[test]
    fn stale_after_layout_change() {
        let (layout, domain) = layout_16(true);
        let copier = ExchangeCopier::build(&layout, &domain, 1, 1);
        let other = BoxLayout::decompose(&domain, 4, 4);
        assert!(!copier.matches(&other, &domain, 1, 1));
    }

    #[test]
    fn cross_rank_bytes_equals_op_sum() {
        let (layout, domain) = layout_16(true);
        let ncomp = 2;
        let copier = ExchangeCopier::build(&layout, &domain, 1, ncomp);
        let expect: u64 = copier
            .ops()
            .iter()
            .filter(|op| layout.rank(op.src) != layout.rank(op.dst))
            .map(|op| op.region.num_cells() * ncomp as u64 * 8)
            .sum();
        assert!(expect > 0);
        assert_eq!(copier.cross_rank_bytes(), expect);
    }

    #[test]
    fn ghost_cells_written_by_exactly_one_op() {
        // The two-phase executor relies on this: no dst cell is covered by
        // two ops, so pack/scatter order cannot change the result.
        for periodic in [false, true] {
            let (layout, domain) = layout_16(periodic);
            let ops = exchange_plan(&layout, &domain, 2);
            for dst in 0..layout.len() {
                let mut seen: Vec<IBox> = Vec::new();
                for op in ops.iter().filter(|op| op.dst == dst) {
                    for prev in &seen {
                        assert!(
                            !prev.intersects(&op.region),
                            "overlapping dst regions {prev:?} and {:?}",
                            op.region
                        );
                    }
                    seen.push(op.region);
                }
            }
        }
    }
}
