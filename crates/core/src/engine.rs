//! The Adaptation Engine (paper §3): selects and executes the adaptation
//! mechanisms according to the user's objective, the operational state and
//! the root–leaf cross-layer policy (§4.4).

use crate::estimate::Estimator;
use crate::policy::app::{self, AppDecision};
use crate::policy::cross::{self, Mechanism};
use crate::policy::middleware::{self, PlacementDecision};
use crate::policy::pressure::{self, PressureAction, PressureDecision};
use crate::policy::resource::{self, ResourceDecision};
use crate::prefs::{Objective, UserHints, UserPreferences};
use crate::state::OperationalState;
use serde::{Deserialize, Serialize};
use xlayer_platform::DiskModel;

/// Which mechanisms the engine may execute. The evaluation's "local"
/// configurations enable a single layer (§5.2.1–5.2.3); "global" enables
/// all three (§5.2.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Application-layer data reduction (§4.1).
    pub enable_app: bool,
    /// Middleware-layer placement (§4.2).
    pub enable_middleware: bool,
    /// Resource-layer staging allocation (§4.3).
    pub enable_resource: bool,
    /// Allow the hybrid (split in-situ + in-transit) placement (§3).
    pub enable_hybrid: bool,
    /// Staging-pressure relief (spill / downsample / reject — the tiered
    /// staging extension). Defaults off so serialized pre-tier configs
    /// keep their meaning.
    #[serde(default)]
    pub enable_pressure: bool,
}

impl EngineConfig {
    /// All three mechanisms (the cross-layer / "global" configuration).
    pub fn global() -> Self {
        EngineConfig {
            enable_hybrid: false,
            enable_app: true,
            enable_middleware: true,
            enable_resource: true,
            enable_pressure: true,
        }
    }

    /// Only the application layer (§5.2.1).
    pub fn app_only() -> Self {
        EngineConfig {
            enable_hybrid: false,
            enable_app: true,
            enable_middleware: false,
            enable_resource: false,
            enable_pressure: false,
        }
    }

    /// Only the middleware layer (§5.2.2, the "local" baseline of §5.2.4).
    pub fn middleware_only() -> Self {
        EngineConfig {
            enable_hybrid: false,
            enable_app: false,
            enable_middleware: true,
            enable_resource: false,
            enable_pressure: false,
        }
    }

    /// Only the resource layer (§5.2.3).
    pub fn resource_only() -> Self {
        EngineConfig {
            enable_hybrid: false,
            enable_app: false,
            enable_middleware: false,
            enable_resource: true,
            enable_pressure: false,
        }
    }

    /// No adaptation at all (static baselines).
    pub fn none() -> Self {
        EngineConfig {
            enable_hybrid: false,
            enable_app: false,
            enable_middleware: false,
            enable_resource: false,
            enable_pressure: false,
        }
    }
}

/// The adaptations the engine decided this sampling point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Adaptations {
    /// Application-layer decision (down-sampling factor), if executed.
    pub app: Option<AppDecision>,
    /// Resource-layer decision (staging core count), if executed.
    pub resource: Option<ResourceDecision>,
    /// Middleware-layer decision (placement), if executed.
    pub placement: Option<PlacementDecision>,
    /// Staging-pressure decision (spill / downsample / reject), if the
    /// pressure layer ran and found an overflow.
    pub pressure: Option<PressureDecision>,
    /// The analysis input size after any reduction — what downstream
    /// mechanisms saw as `S_data`.
    pub analysis_bytes: u64,
    /// The analysis input cells after any reduction.
    pub analysis_cells: u64,
    /// Surface-crossing cells after any reduction (a factor-X volumetric
    /// reduction shrinks the surface quadratically).
    pub analysis_surface: u64,
    /// Temporal resolution: analyze every `analysis_interval`-th step
    /// (1 = every step). Only > 1 when the hints allow it and the amortized
    /// analysis cost would otherwise exceed the hinted budget.
    pub analysis_interval: u64,
}

impl Default for Adaptations {
    fn default() -> Self {
        Adaptations {
            app: None,
            resource: None,
            placement: None,
            pressure: None,
            analysis_bytes: 0,
            analysis_cells: 0,
            analysis_surface: 0,
            analysis_interval: 1,
        }
    }
}

/// The Adaptation Engine.
///
/// ```
/// use xlayer_core::{min_time_engine, EngineConfig, Estimator, OperationalState, UserHints};
/// use xlayer_platform::{CostModel, MachineSpec};
///
/// let engine = min_time_engine(
///     UserHints::paper_fig5_schedule(20),
///     EngineConfig::global(),
///     Estimator::new(CostModel::new(MachineSpec::titan())),
/// );
/// let state = OperationalState {
///     step: 5,
///     data_bytes: 8 << 30,
///     cells: (8u64 << 30) / 8,
///     surface_cells: (8u64 << 30) / 80,
///     last_sim_time: 10.0,
///     sim_cores: 4096,
///     staging_cores: 256,
///     staging_cores_max: 1024,
///     ..Default::default()
/// };
/// let a = engine.adapt(&state);
/// assert_eq!(a.app.unwrap().factor, 2);       // plenty of memory → max resolution
/// assert!(a.resource.unwrap().staging_cores >= 1);
/// assert!(a.placement.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct AdaptationEngine {
    /// User preferences (objective).
    pub prefs: UserPreferences,
    /// User hints (factor schedule, thresholds, monitor interval).
    pub hints: UserHints,
    /// Mechanism enable flags.
    pub config: EngineConfig,
    estimator: Estimator,
    /// Disk model pricing the pressure layer's spill/promote paths.
    disk: DiskModel,
}

impl AdaptationEngine {
    /// Build an engine.
    pub fn new(
        prefs: UserPreferences,
        hints: UserHints,
        config: EngineConfig,
        estimator: Estimator,
    ) -> Self {
        AdaptationEngine {
            prefs,
            hints,
            config,
            estimator,
            disk: DiskModel::titan(),
        }
    }

    /// The estimator (exposed for policy-level diagnostics).
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// Mutable estimator access for online calibration (the Monitor feeds
    /// observed analysis times back through a [`crate::Calibrator`]).
    pub fn estimator_mut(&mut self) -> &mut Estimator {
        &mut self.estimator
    }

    /// Execute the root–leaf plan over the current state, threading each
    /// leaf's outputs into downstream mechanisms' inputs (§4.4: the
    /// application layer's `S_data` feeds both the resource and middleware
    /// formulations; the resource layer's `M` feeds the middleware's).
    pub fn adapt(&self, state: &OperationalState) -> Adaptations {
        let plan = cross::plan(self.prefs.objective);
        // The region-of-interest hint scales the analysis inputs before any
        // mechanism runs (§2: "limit the analytics to 'interesting'
        // regions").
        let roi = self.hints.roi_fraction.clamp(0.0, 1.0);
        let mut out = Adaptations {
            analysis_bytes: (state.data_bytes as f64 * roi) as u64,
            analysis_cells: (state.cells as f64 * roi) as u64,
            analysis_surface: (state.surface_cells as f64 * roi) as u64,
            ..Default::default()
        };
        let mut staging_cores = state.staging_cores;

        for mech in &plan.order {
            match mech {
                Mechanism::AppLayer if self.config.enable_app => {
                    let factors = self.hints.factors_at(state.step);
                    let d = app::select_factor(
                        out.analysis_bytes,
                        &factors,
                        state.mem_available_insitu,
                    );
                    out.analysis_bytes = d.reduced_bytes;
                    out.analysis_cells = app::reduced_cells(state.cells, d.factor);
                    out.analysis_surface = app::reduced_surface(state.surface_cells, d.factor);
                    out.app = Some(d);
                }
                Mechanism::PressureLayer if self.config.enable_pressure => {
                    let d = pressure::decide(
                        &self.disk,
                        out.analysis_bytes,
                        state.mem_available_intransit,
                        state.disk_available_intransit,
                        &self.hints.factors_at(state.step),
                        state.last_sim_time,
                        self.hints.analysis_budget_frac,
                    );
                    if let Some(d) = d {
                        // A downsample verdict shrinks the inputs the
                        // resource and middleware formulations see, the
                        // same way the application layer's does.
                        if let PressureAction::Downsample { factor } = d.action {
                            out.analysis_bytes = app::reduced_bytes(out.analysis_bytes, factor);
                            out.analysis_cells = app::reduced_cells(out.analysis_cells, factor);
                            out.analysis_surface =
                                app::reduced_surface(out.analysis_surface, factor);
                        }
                        out.pressure = Some(d);
                    }
                }
                Mechanism::ResourceLayer if self.config.enable_resource => {
                    let d = resource::select_staging_cores(
                        &self.estimator,
                        out.analysis_bytes,
                        out.analysis_cells,
                        out.analysis_surface,
                        state.last_sim_time,
                        state.sim_cores,
                        state.staging_cores_max,
                    );
                    staging_cores = d.staging_cores;
                    out.resource = Some(d);
                }
                Mechanism::Middleware if self.config.enable_middleware => {
                    let mut s = state.clone();
                    s.staging_cores = staging_cores;
                    out.placement = Some(middleware::decide_placement_opts(
                        &self.estimator,
                        &s,
                        out.analysis_bytes,
                        out.analysis_cells,
                        out.analysis_surface,
                        self.config.enable_hybrid,
                    ));
                }
                _ => {}
            }
        }
        // Temporal resolution: if the (possibly reduced, possibly in-situ)
        // analysis still blows the budget, lower the analysis frequency.
        if self.config.enable_app && self.hints.max_analysis_interval > 1 {
            let t_an = match out.placement.map(|p| p.placement) {
                Some(middleware::Placement::InSitu) => self.estimator.t_insitu(
                    out.analysis_cells,
                    out.analysis_surface,
                    state.sim_cores,
                ),
                _ => self.estimator.t_intransit(
                    out.analysis_cells,
                    out.analysis_surface,
                    staging_cores,
                ),
            };
            out.analysis_interval = app::select_interval(
                t_an,
                state.last_sim_time,
                self.hints.analysis_budget_frac,
                self.hints.max_analysis_interval,
            );
        }
        out
    }
}

/// Convenience: an engine for the paper's headline objective over `est`.
pub fn min_time_engine(hints: UserHints, config: EngineConfig, est: Estimator) -> AdaptationEngine {
    AdaptationEngine::new(
        UserPreferences {
            objective: Objective::MinimizeTimeToSolution,
        },
        hints,
        config,
        est,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::middleware::Placement;
    use xlayer_platform::{CostModel, MachineSpec};

    fn engine(config: EngineConfig) -> AdaptationEngine {
        min_time_engine(
            UserHints::paper_fig5_schedule(20),
            config,
            Estimator::new(CostModel::new(MachineSpec::titan())),
        )
    }

    fn state() -> OperationalState {
        OperationalState {
            step: 5,
            now: 100.0,
            data_bytes: 8 << 30,
            cells: (8u64 << 30) / 8,
            surface_cells: (8u64 << 30) / 80,
            last_sim_time: 10.0,
            sim_cores: 4096,
            staging_cores: 256,
            staging_cores_max: 1024,
            mem_available_insitu: u64::MAX,
            mem_available_intransit: u64::MAX,
            intransit_busy_until: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn global_config_runs_all_three() {
        let a = engine(EngineConfig::global()).adapt(&state());
        assert!(a.app.is_some());
        assert!(a.resource.is_some());
        assert!(a.placement.is_some());
        // Factor 2 selected (plenty of memory) → volume halved.
        assert_eq!(a.app.unwrap().factor, 2);
        assert_eq!(a.analysis_bytes, (8u64 << 30) / 2);
    }

    #[test]
    fn middleware_only_leaves_other_decisions_empty() {
        let a = engine(EngineConfig::middleware_only()).adapt(&state());
        assert!(a.app.is_none());
        assert!(a.resource.is_none());
        assert!(a.placement.is_some());
        assert_eq!(a.analysis_bytes, 8 << 30); // unreduced
    }

    #[test]
    fn reduction_output_feeds_resource_layer() {
        // With reduction, the resource layer should need fewer cores.
        let with_app = engine(EngineConfig::global()).adapt(&state());
        let without_app = engine(EngineConfig {
            enable_app: false,
            enable_middleware: true,
            enable_resource: true,
            enable_hybrid: false,
            enable_pressure: false,
        })
        .adapt(&state());
        assert!(
            with_app.resource.unwrap().staging_cores <= without_app.resource.unwrap().staging_cores
        );
    }

    #[test]
    fn utilization_objective_skips_middleware() {
        let mut e = engine(EngineConfig::global());
        e.prefs.objective = Objective::MaximizeStagingUtilization;
        let a = e.adapt(&state());
        assert!(a.placement.is_none());
        assert!(a.app.is_some());
        assert!(a.resource.is_some());
    }

    #[test]
    fn idle_staging_places_intransit() {
        let a = engine(EngineConfig::global()).adapt(&state());
        assert_eq!(a.placement.unwrap().placement, Placement::InTransit);
    }

    #[test]
    fn busy_staging_with_huge_backlog_places_insitu() {
        let mut s = state();
        s.intransit_busy_until = s.now + 1e9;
        let a = engine(EngineConfig::global()).adapt(&s);
        assert_eq!(a.placement.unwrap().placement, Placement::InSitu);
    }

    #[test]
    fn fig5_schedule_threads_into_decisions() {
        // At step 25 the second phase {2,4,8,16} is active; with very tight
        // memory the factor escalates beyond 4.
        let mut s = state();
        s.step = 25;
        s.mem_available_insitu = s.data_bytes / 100;
        let a = engine(EngineConfig::global()).adapt(&s);
        assert!(a.app.unwrap().factor >= 8);
    }

    #[test]
    fn temporal_interval_rises_when_analysis_dominates() {
        let mut e = engine(EngineConfig::global());
        e.hints.max_analysis_interval = 8;
        e.hints.analysis_budget_frac = 0.05;
        let mut s = state();
        // a very fast simulation step makes per-step analysis unaffordable
        s.last_sim_time = 1e-3;
        let a = e.adapt(&s);
        assert!(
            a.analysis_interval > 1,
            "interval stayed {}",
            a.analysis_interval
        );
        // slow simulation → analyze every step
        s.last_sim_time = 1e6;
        let a = e.adapt(&s);
        assert_eq!(a.analysis_interval, 1);
    }

    #[test]
    fn roi_hint_scales_analysis_inputs() {
        let mut e = engine(EngineConfig::middleware_only());
        e.hints.roi_fraction = 0.25;
        let s = state();
        let a = e.adapt(&s);
        assert_eq!(a.analysis_bytes, s.data_bytes / 4);
        assert_eq!(a.analysis_cells, s.cells / 4);
        assert_eq!(a.analysis_surface, s.surface_cells / 4);
    }

    #[test]
    fn pressure_layer_runs_between_app_and_resource() {
        // Tight staging memory, roomy disk, long step: the pressure layer
        // should choose Spill and leave the analysis inputs alone.
        let mut s = state();
        s.mem_available_intransit = 1 << 30;
        s.disk_available_intransit = u64::MAX;
        s.last_sim_time = 1e4;
        let a = engine(EngineConfig::global()).adapt(&s);
        let p = a.pressure.expect("overflow must reach the pressure layer");
        assert_eq!(p.action, crate::policy::pressure::PressureAction::Spill);
        // The app layer halved 8 GiB; the overflow is what's left beyond
        // the 1 GiB staging memory.
        assert_eq!(p.overflow_bytes, (8u64 << 30) / 2 - (1 << 30));
    }

    #[test]
    fn pressure_downsample_feeds_downstream_mechanisms() {
        // A sub-millisecond step makes any spill unaffordable, so the
        // verdict degrades to downsampling — and the resource layer must
        // see the shrunken bytes.
        let mut s = state();
        s.mem_available_intransit = 3 << 30;
        s.disk_available_intransit = u64::MAX;
        s.last_sim_time = 1e-3;
        let a = engine(EngineConfig::global()).adapt(&s);
        let p = a.pressure.expect("overflow must reach the pressure layer");
        assert_eq!(
            p.action,
            crate::policy::pressure::PressureAction::Downsample { factor: 2 }
        );
        // 8 GiB → 4 GiB (app factor 2) → 2 GiB (pressure factor 2).
        assert_eq!(a.analysis_bytes, 2 << 30);
    }

    #[test]
    fn pressure_disabled_leaves_decision_empty() {
        let mut s = state();
        s.mem_available_intransit = 1 << 30;
        let a = engine(EngineConfig::middleware_only()).adapt(&s);
        assert!(a.pressure.is_none());
    }

    #[test]
    fn none_config_is_inert() {
        let a = engine(EngineConfig::none()).adapt(&state());
        assert_eq!(
            a,
            Adaptations {
                analysis_bytes: 8 << 30,
                analysis_cells: (8u64 << 30) / 8,
                analysis_surface: (8u64 << 30) / 80,
                ..Default::default()
            }
        );
    }
}
