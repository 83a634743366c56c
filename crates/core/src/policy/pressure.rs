//! Staging-pressure policy: what to do when a step's (possibly already
//! reduced) output exceeds the free staging memory.
//!
//! There are three relief mechanisms — *spill* cold versions to the
//! staging node's disk log, *downsample* the step before it is sent, or
//! *reject* the put — and the engine selects among them the same way the
//! paper's root–leaf policy selects among layers (§4.4): by pricing each
//! option against the objective. Spilling costs a disk round trip (demote
//! now, promote on first access, priced by
//! [`DiskModel::spill_roundtrip`]); downsampling costs resolution but no
//! time; rejecting costs the data.
//!
//! Each verdict is carried out by the layer that owns its mechanism. A
//! downsample is the producer's: the workflow driver multiplies the
//! step's pack factor by it, as the engine multiplied the application
//! layer's factor by it when it sized the step, so the whole step is
//! staged at that resolution on every backend. Spill and reject are the
//! staging servers', and nothing is forwarded for them: every server, in
//! process or behind a service, spills an over-cap put while its disk log
//! has room and refuses it after, reading that room fresh at each put.
//! That is the predicate this policy applies to its sampled disk
//! headroom, so a `Spill` or `Reject` verdict names what the servers will
//! do with the step's overflow, and only they act on it.

use super::app;
use serde::{Deserialize, Serialize};
use xlayer_platform::{DiskModel, SimTime};

/// The relief mechanism chosen for staging memory pressure. `Spill` and
/// `Reject` name what the staging servers' own rule — spill while the
/// disk log has room, refuse after — will do with the overflow;
/// `Downsample` is the producer's pack factor (the crates are kept
/// decoupled: policy here, mechanisms there).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PressureAction {
    /// The staging servers demote cold versions to their disk logs: the
    /// overflow fits the disk headroom.
    Spill,
    /// The producer packs the step reduced by `factor` (volumetric), on
    /// top of the application layer's factor, before anything is staged.
    Downsample {
        /// Volumetric reduction divisor, from the user-hinted set.
        factor: u32,
    },
    /// The staging servers refuse the puts neither memory nor disk can
    /// hold (`OutOfMemory`).
    Reject,
}

/// The pressure policy's verdict for one sampling point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PressureDecision {
    /// The selected relief mechanism.
    pub action: PressureAction,
    /// Bytes that do not fit in staging memory this step.
    pub overflow_bytes: u64,
    /// Estimated time to demote the overflow to disk.
    pub spill_time: SimTime,
    /// Estimated time to promote it back on first access.
    pub promote_time: SimTime,
}

/// Decide the relief mechanism for one step's staging pressure.
///
/// Returns `None` when `incoming_bytes` fits in `mem_available` (no
/// pressure). Otherwise:
///
/// 1. **Spill** if the overflow fits the disk budget *and* the disk
///    round trip stays within `budget_frac` of the step's simulation
///    time — data survives at full resolution and the workflow does not
///    stall on I/O.
/// 2. **Downsample** by the smallest user-acceptable factor that makes
///    the payload fit in memory when the round trip would be too slow.
/// 3. **Spill anyway** when no acceptable factor fits but the disk has
///    room: a slow disk beats dropped data.
/// 4. **Reject** only when memory, acceptable factors, and disk are all
///    exhausted.
pub fn decide(
    disk: &DiskModel,
    incoming_bytes: u64,
    mem_available: u64,
    disk_available: u64,
    factors: &[u32],
    t_sim: SimTime,
    budget_frac: f64,
) -> Option<PressureDecision> {
    let overflow = incoming_bytes.saturating_sub(mem_available);
    if overflow == 0 {
        return None;
    }
    let spill_time = disk.spill_time(overflow);
    let promote_time = disk.promote_time(overflow);
    let decided = |action| {
        Some(PressureDecision {
            action,
            overflow_bytes: overflow,
            spill_time,
            promote_time,
        })
    };
    let disk_fits = disk_available >= overflow;
    // With no observed step time yet there is nothing to amortize
    // against: treat the spill as affordable (first-step optimism; the
    // Monitor's next sample corrects it).
    let affordable = t_sim <= 0.0 || spill_time + promote_time <= budget_frac.max(0.0) * t_sim;
    if disk_fits && affordable {
        return decided(PressureAction::Spill);
    }
    let mut sorted: Vec<u32> = factors.to_vec();
    sorted.sort_unstable();
    for &x in &sorted {
        if x > 1 && app::reduced_bytes(incoming_bytes, x) <= mem_available {
            return decided(PressureAction::Downsample { factor: x });
        }
    }
    if disk_fits {
        return decided(PressureAction::Spill);
    }
    decided(PressureAction::Reject)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskModel {
        DiskModel {
            write_bandwidth: 1e9,
            read_bandwidth: 1e9,
            op_latency: 0.0,
        }
    }

    #[test]
    fn no_overflow_is_no_decision() {
        assert_eq!(
            decide(&disk(), 100, 100, u64::MAX, &[2, 4], 10.0, 0.1),
            None
        );
    }

    #[test]
    fn cheap_spill_wins_over_downsampling() {
        // 1 GiB overflow, 1 GB/s both ways → ~2.1 s round trip, within
        // 10% of a 100 s step.
        let d = decide(&disk(), 2 << 30, 1 << 30, u64::MAX, &[2, 4], 100.0, 0.1)
            .expect("overflow must decide");
        assert_eq!(d.action, PressureAction::Spill);
        assert_eq!(d.overflow_bytes, 1 << 30);
        assert!(d.spill_time > 0.0 && d.promote_time > 0.0);
    }

    #[test]
    fn slow_spill_downsamples_at_smallest_fitting_factor() {
        // Same overflow against a 1 s step: the round trip blows the
        // budget, and factor 2 already fits memory.
        let d = decide(&disk(), 2 << 30, 1 << 30, u64::MAX, &[4, 2], 1.0, 0.1)
            .expect("overflow must decide");
        assert_eq!(d.action, PressureAction::Downsample { factor: 2 });
    }

    #[test]
    fn unaffordable_spill_with_no_fitting_factor_still_spills() {
        // Even factor 4 leaves 2 GiB against a 1 GiB cap; disk has room.
        let d = decide(&disk(), 8 << 30, 1 << 30, u64::MAX, &[2, 4], 1.0, 0.1)
            .expect("overflow must decide");
        assert_eq!(d.action, PressureAction::Spill);
    }

    #[test]
    fn everything_exhausted_is_reject() {
        let d =
            decide(&disk(), 8 << 30, 1 << 30, 0, &[2, 4], 1.0, 0.1).expect("overflow must decide");
        assert_eq!(d.action, PressureAction::Reject);
    }

    #[test]
    fn full_disk_falls_back_to_downsampling() {
        let d = decide(&disk(), 2 << 30, 1 << 30, 0, &[2, 4], 100.0, 0.1)
            .expect("overflow must decide");
        assert_eq!(d.action, PressureAction::Downsample { factor: 2 });
    }

    #[test]
    fn identity_factor_never_selected() {
        // factors = [1] cannot relieve pressure; with a full disk the
        // verdict must be Reject, not Downsample{1}.
        let d =
            decide(&disk(), 2 << 30, 1 << 30, 0, &[1], 100.0, 0.1).expect("overflow must decide");
        assert_eq!(d.action, PressureAction::Reject);
    }
}
