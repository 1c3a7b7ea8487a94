//! The out-of-ODD taxonomy: *named* ways a scene can leave the operational
//! design domain.
//!
//! The assume-guarantee argument quantifies over the ODD, so monitor
//! experiments must measure detection *per way of leaving it* — a monitor
//! that reliably flags blackouts can still be blind to occlusions, and one
//! aggregate "extreme scene" rate hides exactly that. Each [`OddViolation`]
//! class owns a sampler ([`crate::OddSampler::sample_violation`]) that
//! starts from an in-ODD scene and pushes one dimension far outside its
//! configured range, so detection rates decompose cleanly by class.

use std::fmt;

use crate::{SceneConfig, SceneParams};

/// One named way a scene leaves the operational design domain.
///
/// Every class pushes exactly one scene dimension beyond the ODD ranges of a
/// [`SceneConfig`]; the distances are chosen so the sampled scene is outside
/// the ODD for *any* configuration (a class whose dimension is disabled in
/// the ODD, e.g. occlusion under [`SceneConfig::small`], violates it with
/// any positive amount and is pushed near the physical maximum instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OddViolation {
    /// Road curvature far beyond `max_curvature` (1.5–3× the ODD limit):
    /// a hairpin the highway ODD never contains.
    ExtremeCurvature,
    /// Lighting far below `min_lighting` — an unlit tunnel or night scene.
    Blackout,
    /// A leading vehicle hiding (nearly) all lane markings: occlusion near
    /// 1, well above any in-ODD `max_occlusion`.
    FullOcclusion,
    /// Rain-streak density far above `max_rain` — a downpour drowning the
    /// frame in streaks.
    Downpour,
    /// A dead sensor region: a band of blanked rows no in-ODD scene has.
    SensorDropout,
    /// Lateral ego offset far beyond `max_ego_offset` — the vehicle has
    /// left its lane entirely.
    LaneDeparture,
}

impl OddViolation {
    /// All violation classes, in a stable order.
    pub const ALL: [OddViolation; 6] = [
        OddViolation::ExtremeCurvature,
        OddViolation::Blackout,
        OddViolation::FullOcclusion,
        OddViolation::Downpour,
        OddViolation::SensorDropout,
        OddViolation::LaneDeparture,
    ];

    /// Short kebab-case name, used in report tables and benchmark metric
    /// ids (`detection-<name>-permille`).
    pub fn name(self) -> &'static str {
        match self {
            OddViolation::ExtremeCurvature => "extreme-curvature",
            OddViolation::Blackout => "blackout",
            OddViolation::FullOcclusion => "full-occlusion",
            OddViolation::Downpour => "downpour",
            OddViolation::SensorDropout => "sensor-dropout",
            OddViolation::LaneDeparture => "lane-departure",
        }
    }

    /// One-line description for reports.
    pub fn describe(self) -> &'static str {
        match self {
            OddViolation::ExtremeCurvature => "curvature far beyond the ODD maximum",
            OddViolation::Blackout => "lighting far below the ODD minimum",
            OddViolation::FullOcclusion => "lane markings fully hidden by a leading vehicle",
            OddViolation::Downpour => "rain density far beyond the ODD maximum",
            OddViolation::SensorDropout => "a dead sensor band across the frame",
            OddViolation::LaneDeparture => "lateral offset far beyond the ODD maximum",
        }
    }

    /// Returns `true` when `scene` exhibits *this* violation relative to
    /// `config` (it may exhibit others too).
    pub fn exhibited_by(self, scene: &SceneParams, config: &SceneConfig) -> bool {
        match self {
            OddViolation::ExtremeCurvature => scene.curvature.abs() > config.max_curvature,
            OddViolation::Blackout => scene.lighting < config.min_lighting,
            OddViolation::FullOcclusion => scene.occlusion > config.max_occlusion,
            OddViolation::Downpour => scene.rain_density > config.max_rain,
            OddViolation::SensorDropout => scene.sensor_dropout > 0.0,
            OddViolation::LaneDeparture => scene.ego_offset.abs() > config.max_ego_offset,
        }
    }
}

impl fmt::Display for OddViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_display_matches() {
        let mut names: Vec<_> = OddViolation::ALL.iter().map(|v| v.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OddViolation::ALL.len());
        assert_eq!(format!("{}", OddViolation::Blackout), "blackout");
        assert!(!OddViolation::Downpour.describe().is_empty());
    }

    #[test]
    fn exhibited_by_matches_the_violated_dimension() {
        let cfg = SceneConfig::small();
        let nominal = SceneParams::nominal();
        for class in OddViolation::ALL {
            assert!(
                !class.exhibited_by(&nominal, &cfg),
                "{class} claims the nominal scene"
            );
        }
        let mut dark = nominal;
        dark.lighting = 0.1;
        assert!(OddViolation::Blackout.exhibited_by(&dark, &cfg));
        assert!(!OddViolation::Downpour.exhibited_by(&dark, &cfg));
        let occluded = nominal.with_occlusion(0.9, 0.3);
        assert!(OddViolation::FullOcclusion.exhibited_by(&occluded, &cfg));
    }
}
