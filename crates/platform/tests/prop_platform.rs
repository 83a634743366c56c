//! Property-based tests of the platform substrate: FIFO resource laws,
//! cost-model monotonicity and utilization bounds.

use proptest::prelude::*;
use xlayer_platform::{
    CostModel, FifoResource, MachineSpec, PowerModel, SolverKind, StagingStepRecord,
    StagingUtilization, TransferModel,
};

proptest! {
    #[test]
    fn fifo_resource_never_overlaps(
        reqs in proptest::collection::vec((0.0f64..100.0, 0.01f64..10.0), 1..40),
    ) {
        let mut r = FifoResource::new();
        // submit in nondecreasing arrival order (FIFO semantics)
        let mut sorted = reqs.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut intervals = Vec::new();
        for (now, dur) in sorted {
            let (s, e) = r.acquire(now, dur);
            prop_assert!(s >= now);
            prop_assert!((e - s - dur).abs() < 1e-9);
            intervals.push((s, e));
        }
        for w in intervals.windows(2) {
            prop_assert!(w[1].0 >= w[0].1 - 1e-9, "overlap {:?}", w);
        }
        // busy time = sum of durations
        let total: f64 = intervals.iter().map(|(s, e)| e - s).sum();
        prop_assert!((r.busy_time() - total).abs() < 1e-6);
    }

    #[test]
    fn cost_model_monotone_in_cells_and_cores(
        cells in 1u64..(1 << 32),
        cores in 1usize..16384,
    ) {
        let m = CostModel::new(MachineSpec::titan());
        for kind in [SolverKind::Euler, SolverKind::AdvectDiffuse] {
            let t = m.sim_time(kind, cells, cores);
            prop_assert!(t > 0.0 && t.is_finite());
            prop_assert!(m.sim_time(kind, cells * 2, cores) > t);
            if cores > 1 {
                prop_assert!(m.sim_time(kind, cells, cores / 2 + 1) >= t * 0.999);
            }
        }
        let a = m.analysis_time_surface(cells, cells / 10, cores);
        prop_assert!(a > 0.0);
        prop_assert!(m.analysis_time_surface(cells, cells / 5, cores) >= a);
    }

    #[test]
    fn transfer_time_additive_in_bytes(
        bytes_a in 1u64..(1 << 36),
        bytes_b in 1u64..(1 << 36),
    ) {
        let t = TransferModel::for_machine(&MachineSpec::titan());
        let sum = t.transfer_time(bytes_a) + t.transfer_time(bytes_b);
        let joint = t.transfer_time(bytes_a + bytes_b);
        // one message saves exactly one latency
        prop_assert!((sum - joint - t.latency).abs() < 1e-9);
    }

    #[test]
    fn utilization_efficiency_in_unit_interval(
        records in proptest::collection::vec(
            (1usize..512, 0.0f64..100.0, 0.1f64..100.0),
            1..30,
        ),
    ) {
        let mut u = StagingUtilization::new();
        for (i, (alloc, busy, span)) in records.iter().enumerate() {
            u.record(StagingStepRecord {
                step: i as u64,
                allocated: *alloc,
                used: *alloc,
                analysis_time: busy * *alloc as f64,
                span: span.max(*busy),
            });
        }
        let eff = u.efficiency();
        prop_assert!((0.0..=1.0).contains(&eff));
        let b = u.buckets(256);
        prop_assert!(b.total() <= records.len());
    }

    #[test]
    fn energy_monotone_in_busy_time(
        cores in 1usize..4096,
        span in 1.0f64..1e5,
        busy_frac in 0.0f64..1.0,
    ) {
        let p = PowerModel::titan();
        let busy = span * busy_frac;
        let e = p.core_energy(cores, busy, span);
        prop_assert!(e >= p.core_energy(cores, 0.0, span) - 1e-9);
        prop_assert!(e <= p.core_energy(cores, span, span) + 1e-9);
    }
}
