//! Execution-time and memory estimators (paper Table 1): the quantities the
//! policies compare — `T_insitu(N, S)`, `T_intransit(M, S)`, `T_sd`,
//! `T_recv`, `Mem_insitu`, `Mem_intransit`.

use xlayer_platform::{CostModel, SimTime, TransferModel};

/// Fraction of a staging core's nominal memory share actually usable for
/// cached objects (the rest is runtime overhead).
const STAGING_MEM_FRACTION: f64 = 0.8;

/// Working-set expansion of the in-situ analysis relative to its input:
/// marching cubes holds the input block plus the growing mesh.
const INSITU_WORK_FACTOR: f64 = 1.35;

/// The estimator used by every policy.
#[derive(Clone, Debug)]
pub struct Estimator {
    /// Kernel/machine cost model.
    pub cost: CostModel,
    /// Simulation→staging transfer model.
    pub transfer: TransferModel,
    /// Online correction applied to in-situ analysis estimates
    /// (observed/predicted, exponentially smoothed).
    pub insitu_scale: f64,
    /// Online correction applied to in-transit analysis estimates.
    pub intransit_scale: f64,
}

/// Exponentially-smoothed online calibration of the analysis estimators:
/// an autonomic runtime corrects its model from what it measures, instead
/// of trusting static constants (§3's Monitor closes this loop).
#[derive(Clone, Copy, Debug)]
pub struct Calibrator {
    /// Smoothing factor for new observations (0 < α ≤ 1).
    pub alpha: f64,
    /// Reject observations this far from the current scale (guards against
    /// one-off stalls polluting the model).
    pub outlier_ratio: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            alpha: 0.3,
            outlier_ratio: 20.0,
        }
    }
}

impl Calibrator {
    fn update(&self, scale: &mut f64, predicted: f64, observed: f64) {
        if predicted <= 0.0 || observed <= 0.0 {
            return;
        }
        // `predicted` already includes the current scale, so the relative
        // error is the multiplicative correction still needed.
        let rel = observed / predicted;
        // xlint: allow(F) -- 1.0 is the literal uncalibrated bootstrap scale, never computed
        if *scale == 1.0 {
            // Bootstrap: an uncalibrated model may be arbitrarily far off
            // (static constants vs an unknown machine); the first
            // observation initializes the scale outright.
            *scale = rel;
            return;
        }
        if rel > self.outlier_ratio || rel < 1.0 / self.outlier_ratio {
            return;
        }
        *scale *= 1.0 - self.alpha + self.alpha * rel;
    }

    /// Fold an observed in-situ analysis time into the estimator.
    pub fn observe_insitu(&self, est: &mut Estimator, predicted: f64, observed: f64) {
        let mut s = est.insitu_scale;
        self.update(&mut s, predicted, observed);
        est.insitu_scale = s;
    }

    /// Fold an observed in-transit analysis time into the estimator.
    pub fn observe_intransit(&self, est: &mut Estimator, predicted: f64, observed: f64) {
        let mut s = est.intransit_scale;
        self.update(&mut s, predicted, observed);
        est.intransit_scale = s;
    }
}

impl Estimator {
    /// Build from a cost model (transfer parameters come from its machine).
    pub fn new(cost: CostModel) -> Self {
        let transfer = TransferModel::for_machine(&cost.machine);
        Estimator {
            cost,
            transfer,
            insitu_scale: 1.0,
            intransit_scale: 1.0,
        }
    }

    /// `T_insitu(N, S_data)`: analysis of `cells` cells (of which
    /// `surface_cells` cross the isosurface) on the `n` simulation cores
    /// (Table 1).
    pub fn t_insitu(&self, cells: u64, surface_cells: u64, n: usize) -> SimTime {
        self.cost.analysis_time_surface(cells, surface_cells, n) * self.insitu_scale
    }

    /// `T_intransit(M, S_data)`: analysis of `cells` cells on `m` staging
    /// cores (Table 1).
    pub fn t_intransit(&self, cells: u64, surface_cells: u64, m: usize) -> SimTime {
        self.cost
            .analysis_time_surface(cells, surface_cells, m.max(1))
            * self.intransit_scale
    }

    /// `T_sd(S_data)`: latency for the simulation side to send `bytes`
    /// asynchronously — the injection cost, spread over the sending nodes
    /// (Table 1, Eq. 9).
    pub fn t_send(&self, bytes: u64, sim_cores: usize) -> SimTime {
        let nodes = sim_cores.div_ceil(self.cost.machine.cores_per_node).max(1);
        self.transfer.latency + bytes as f64 / (self.transfer.bandwidth * nodes as f64)
    }

    /// `T_recv(S_data)`: latency for the staging side to absorb `bytes`
    /// over its nodes' links (Table 1, Eq. 9).
    pub fn t_recv(&self, bytes: u64, staging_cores: usize) -> SimTime {
        let nodes = staging_cores
            .div_ceil(self.cost.machine.cores_per_node)
            .max(1);
        self.transfer.latency + bytes as f64 / (self.transfer.bandwidth * nodes as f64)
    }

    /// `Mem_insitu(S_data, N)`: extra bytes the in-situ analysis needs on
    /// the most loaded rank, for a total output of `bytes` over `n` ranks
    /// with imbalance factor `imbalance` (≥ 1).
    pub fn mem_insitu(&self, bytes: u64, n: usize, imbalance: f64) -> u64 {
        let per_rank = bytes as f64 / n.max(1) as f64 * imbalance.max(1.0);
        (per_rank * INSITU_WORK_FACTOR) as u64
    }

    /// `Mem_intransit(S_data, M)`: staging memory that must be free to cache
    /// the step's output — the data itself (Eq. 10: `Mem_intransit ≥ S_data`).
    pub fn mem_intransit(&self, bytes: u64) -> u64 {
        bytes
    }

    /// Usable staging memory provided by `m` staging cores.
    pub fn staging_capacity(&self, m: usize) -> u64 {
        (self.cost.machine.memory_per_core() as f64 * m as f64 * STAGING_MEM_FRACTION) as u64
    }

    /// Smallest core count whose staging capacity holds `bytes`
    /// (the Eq. 10 lower bound on `M`).
    pub fn min_cores_for_memory(&self, bytes: u64) -> usize {
        let per_core = self.cost.machine.memory_per_core() as f64 * STAGING_MEM_FRACTION;
        ((bytes as f64 / per_core).ceil() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlayer_platform::MachineSpec;

    fn est() -> Estimator {
        Estimator::new(CostModel::new(MachineSpec::titan()))
    }

    #[test]
    fn intransit_slower_than_insitu_for_m_less_than_n() {
        let e = est();
        let cells = 1 << 24;
        assert!(e.t_intransit(cells, cells / 10, 256) > e.t_insitu(cells, cells / 10, 4096));
    }

    #[test]
    fn send_time_scales_down_with_nodes() {
        let e = est();
        let b = 1 << 30;
        assert!(e.t_send(b, 4096) < e.t_send(b, 256));
    }

    #[test]
    fn staging_capacity_scales_with_cores() {
        let e = est();
        assert_eq!(e.staging_capacity(32), 2 * e.staging_capacity(16));
    }

    #[test]
    fn min_cores_inverse_of_capacity() {
        let e = est();
        for bytes in [1u64 << 20, 1 << 30, 5 << 30] {
            let m = e.min_cores_for_memory(bytes);
            assert!(e.staging_capacity(m) >= bytes);
            if m > 1 {
                assert!(e.staging_capacity(m - 1) < bytes);
            }
        }
    }

    #[test]
    fn mem_insitu_grows_with_imbalance() {
        let e = est();
        let b = 1 << 30;
        assert!(e.mem_insitu(b, 1024, 2.0) > e.mem_insitu(b, 1024, 1.0));
        assert!(e.mem_insitu(b, 1024, 1.0) >= b / 1024);
    }

    #[test]
    fn mem_intransit_is_sdata() {
        let e = est();
        assert_eq!(e.mem_intransit(12345), 12345);
    }

    #[test]
    fn calibration_converges_to_observed_ratio() {
        let mut e = est();
        let cal = Calibrator::default();
        let cells = 1 << 24;
        let base = e.t_insitu(cells, cells / 10, 4096);
        // The real machine is consistently 2x slower than the model.
        for _ in 0..40 {
            let predicted = e.t_insitu(cells, cells / 10, 4096);
            cal.observe_insitu(&mut e, predicted, 2.0 * base);
        }
        let corrected = e.t_insitu(cells, cells / 10, 4096);
        assert!(
            (corrected / base - 2.0).abs() < 0.05,
            "scale converged to {}",
            corrected / base
        );
        // the in-transit estimator is untouched
        assert_eq!(e.intransit_scale, 1.0);
    }

    #[test]
    fn calibration_bootstraps_then_rejects_outliers() {
        let mut e = est();
        let cal = Calibrator::default();
        cal.observe_intransit(&mut e, 0.0, 1.0); // degenerate: ignored
        cal.observe_intransit(&mut e, 1.0, -1.0);
        assert_eq!(e.intransit_scale, 1.0);
        // First real observation initializes the scale outright, however
        // far off the static model was.
        cal.observe_intransit(&mut e, 1.0, 70.0);
        assert_eq!(e.intransit_scale, 70.0);
        // Once calibrated, a 1000x stall is rejected…
        let before = e.intransit_scale;
        cal.observe_intransit(&mut e, 70.0, 70_000.0);
        assert_eq!(e.intransit_scale, before);
        // …while a modest error is smoothed in.
        cal.observe_intransit(&mut e, 70.0, 105.0);
        assert!((e.intransit_scale - 70.0 * 1.15).abs() < 1e-9);
    }
}
