//! The Monitor (paper §3, Fig. 3): periodically samples the operational
//! state of the workflow and forwards it to the Adaptation Engine.
//!
//! It predicts nothing itself: the engine's policies read the latest
//! sample, and the history it keeps is the record of what each sampling
//! point observed.

use crate::state::OperationalState;

/// Periodic sampler and history of operational states.
#[derive(Clone, Debug)]
pub struct Monitor {
    interval: u64,
    history: Vec<OperationalState>,
}

impl Monitor {
    /// Sample every `interval` steps (≥ 1).
    pub fn new(interval: u64) -> Self {
        Monitor {
            interval: interval.max(1),
            history: Vec::new(),
        }
    }

    /// The sampling period in steps.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// True if `step` is a sampling point ("after every specified number of
    /// simulation time steps", §3).
    pub fn should_sample(&self, step: u64) -> bool {
        step.is_multiple_of(self.interval)
    }

    /// Record a snapshot (call at sampling points). Returns a reference to
    /// the stored state.
    pub fn record(&mut self, state: OperationalState) -> &OperationalState {
        self.history.push(state);
        self.history.last().expect("just pushed")
    }

    /// Most recent snapshot.
    pub fn last(&self) -> Option<&OperationalState> {
        self.history.last()
    }

    /// Full history, oldest first.
    pub fn history(&self) -> &[OperationalState] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(step: u64, sim_time: f64, bytes: u64) -> OperationalState {
        OperationalState {
            step,
            last_sim_time: sim_time,
            data_bytes: bytes,
            ..Default::default()
        }
    }

    #[test]
    fn sampling_period() {
        let m = Monitor::new(5);
        assert!(m.should_sample(0));
        assert!(!m.should_sample(3));
        assert!(m.should_sample(10));
        // interval 0 is clamped to 1
        assert!(Monitor::new(0).should_sample(7));
    }

    #[test]
    fn history_and_last() {
        let mut m = Monitor::new(1);
        assert!(m.last().is_none());
        m.record(state(1, 2.0, 100));
        m.record(state(2, 4.0, 200));
        assert_eq!(m.last().unwrap().step, 2);
        assert_eq!(m.history().len(), 2);
    }
}
