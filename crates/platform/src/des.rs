//! Virtual time for the modeled-scale mode.
//!
//! The modeled mode (DESIGN.md) replays the workflow's timestep loop over
//! virtual ranks. It has no event queue: each component advances its own
//! virtual clock, and the one shared thing — a network link or a staging
//! ingress port — is a [`FifoResource`] that serialises the requests made
//! on it in the order they are made, so runs are fully deterministic.

/// Simulated time in seconds.
pub type SimTime = f64;

/// A single-server FIFO resource (e.g. one shared network link or one
/// staging core): requests are serviced in arrival order, each occupying
/// the resource for its duration.
#[derive(Clone, Debug, Default)]
pub struct FifoResource {
    busy_until: SimTime,
    busy_time: SimTime,
}

impl FifoResource {
    /// An idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request the resource at `now` for `duration` seconds.
    /// Returns `(start, end)`: the request starts when the resource frees.
    pub fn acquire(&mut self, now: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        self.busy_time += duration;
        (start, end)
    }

    /// When the resource next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> SimTime {
        self.busy_time
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon <= 0.0 {
            0.0
        } else {
            (self.busy_time / horizon).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_resource_serializes() {
        let mut r = FifoResource::new();
        assert_eq!(r.acquire(0.0, 2.0), (0.0, 2.0));
        assert_eq!(r.acquire(1.0, 3.0), (2.0, 5.0)); // waits for first
        assert_eq!(r.acquire(10.0, 1.0), (10.0, 11.0)); // idle gap
        assert_eq!(r.busy_time(), 6.0);
        assert!((r.utilization(12.0) - 0.5).abs() < 1e-12);
    }
}
