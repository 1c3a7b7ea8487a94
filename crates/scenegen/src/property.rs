//! Input-property oracles over scene parameters.

use std::fmt;

use crate::{SceneConfig, SceneParams};

/// The input properties φ considered in the experiments.
///
/// Each property is decidable from the hidden scene parameters; the scene
/// oracle therefore plays the role of the human expert in the paper, who
/// labels images with "the road strongly bends to the right" etc. The
/// trained characterizer only ever sees the *image* (through the perception
/// network's close-to-output activations), never these parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropertyKind {
    /// The road bends to the right with at least the strong-bend curvature.
    BendsRight,
    /// The road bends to the left with at least the strong-bend curvature.
    BendsLeft,
    /// The road is (nearly) straight.
    Straight,
    /// A traffic participant occupies the adjacent lane. Unrelated to the
    /// affordance output — the information-bottleneck case of experiment E3.
    AdjacentTraffic,
    /// The scene is darker than the lighting threshold (dusk / tunnel).
    LowLight,
    /// A leading vehicle hides at least the configured fraction of the lane
    /// markings ([`SceneConfig::occlusion_threshold`]). Like traffic and
    /// lighting, a nuisance dimension unrelated to the affordance output.
    Occluded,
    /// Rain streaks at or above the configured density
    /// ([`SceneConfig::heavy_rain_threshold`]).
    HeavyRain,
    /// The centre lane marking is rendered dashed instead of solid.
    DashedLane,
}

impl PropertyKind {
    /// All property kinds, in a stable order.
    pub const ALL: [PropertyKind; 8] = [
        PropertyKind::BendsRight,
        PropertyKind::BendsLeft,
        PropertyKind::Straight,
        PropertyKind::AdjacentTraffic,
        PropertyKind::LowLight,
        PropertyKind::Occluded,
        PropertyKind::HeavyRain,
        PropertyKind::DashedLane,
    ];

    /// Ground-truth decision: does the property hold for this scene?
    pub fn holds(self, scene: &SceneParams, config: &SceneConfig) -> bool {
        match self {
            PropertyKind::BendsRight => scene.curvature >= config.strong_bend_threshold,
            PropertyKind::BendsLeft => scene.curvature <= -config.strong_bend_threshold,
            PropertyKind::Straight => scene.curvature.abs() <= config.straight_threshold,
            PropertyKind::AdjacentTraffic => scene.adjacent_traffic,
            PropertyKind::LowLight => scene.lighting < (config.min_lighting + 0.15),
            PropertyKind::Occluded => scene.occlusion >= config.occlusion_threshold,
            PropertyKind::HeavyRain => scene.rain_density >= config.heavy_rain_threshold,
            PropertyKind::DashedLane => scene.dashed_lanes,
        }
    }

    /// Returns `true` when in-ODD scenes satisfying the property exist
    /// under `config` — i.e. when balanced rejection sampling
    /// ([`crate::DatasetBundle::generate_balanced`]) can terminate. The
    /// diversity properties need their ODD dimension switched on (e.g.
    /// [`SceneConfig::diverse`]); under the legacy configurations they are
    /// unsatisfiable and must be skipped.
    pub fn satisfiable_in(self, config: &SceneConfig) -> bool {
        // Strict comparisons: at threshold == maximum the satisfying set
        // has measure zero under the uniform sampler, so rejection
        // sampling would still spin forever.
        match self {
            PropertyKind::Occluded => config.max_occlusion > config.occlusion_threshold,
            PropertyKind::HeavyRain => config.max_rain > config.heavy_rain_threshold,
            PropertyKind::DashedLane => config.dashed_lane_fraction > 0.0,
            _ => true,
        }
    }

    /// Returns `true` when the property is, by construction of the scene
    /// model, causally related to the affordance output (curvature-derived
    /// properties are; traffic and lighting are not). Used by experiment E3
    /// to split properties into "learnable at close-to-output layers" and
    /// "information-bottlenecked".
    pub fn is_output_related(self) -> bool {
        matches!(
            self,
            PropertyKind::BendsRight | PropertyKind::BendsLeft | PropertyKind::Straight
        )
    }

    /// Short snake_case name used in reports and benchmark labels.
    pub fn name(self) -> &'static str {
        match self {
            PropertyKind::BendsRight => "bends_right",
            PropertyKind::BendsLeft => "bends_left",
            PropertyKind::Straight => "straight",
            PropertyKind::AdjacentTraffic => "adjacent_traffic",
            PropertyKind::LowLight => "low_light",
            PropertyKind::Occluded => "occluded",
            PropertyKind::HeavyRain => "heavy_rain",
            PropertyKind::DashedLane => "dashed_lane",
        }
    }
}

impl fmt::Display for PropertyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SceneConfig {
        SceneConfig::small()
    }

    #[test]
    fn bend_properties_follow_curvature_sign() {
        let cfg = cfg();
        let right = SceneParams::nominal().with_curvature(0.8);
        let left = SceneParams::nominal().with_curvature(-0.8);
        let straight = SceneParams::nominal().with_curvature(0.05);
        assert!(PropertyKind::BendsRight.holds(&right, &cfg));
        assert!(!PropertyKind::BendsRight.holds(&left, &cfg));
        assert!(!PropertyKind::BendsRight.holds(&straight, &cfg));
        assert!(PropertyKind::BendsLeft.holds(&left, &cfg));
        assert!(PropertyKind::Straight.holds(&straight, &cfg));
        assert!(!PropertyKind::Straight.holds(&right, &cfg));
    }

    #[test]
    fn moderate_bend_is_neither_strong_nor_straight() {
        let cfg = cfg();
        let moderate = SceneParams::nominal().with_curvature(0.3);
        assert!(!PropertyKind::BendsRight.holds(&moderate, &cfg));
        assert!(!PropertyKind::BendsLeft.holds(&moderate, &cfg));
        assert!(!PropertyKind::Straight.holds(&moderate, &cfg));
    }

    #[test]
    fn traffic_and_lighting_properties() {
        let cfg = cfg();
        assert!(PropertyKind::AdjacentTraffic
            .holds(&SceneParams::nominal().with_adjacent_traffic(0.5), &cfg));
        assert!(!PropertyKind::AdjacentTraffic.holds(&SceneParams::nominal(), &cfg));
        let mut dark = SceneParams::nominal();
        dark.lighting = 0.6;
        assert!(PropertyKind::LowLight.holds(&dark, &cfg));
        assert!(!PropertyKind::LowLight.holds(&SceneParams::nominal(), &cfg));
    }

    #[test]
    fn output_relatedness_partition() {
        let related: Vec<_> = PropertyKind::ALL
            .iter()
            .filter(|p| p.is_output_related())
            .collect();
        assert_eq!(related.len(), 3);
        assert!(!PropertyKind::AdjacentTraffic.is_output_related());
        assert!(!PropertyKind::LowLight.is_output_related());
        // The diversity dimensions are nuisance parameters, not affordance
        // inputs — the information-bottleneck split must classify them so.
        assert!(!PropertyKind::Occluded.is_output_related());
        assert!(!PropertyKind::HeavyRain.is_output_related());
        assert!(!PropertyKind::DashedLane.is_output_related());
    }

    #[test]
    fn diversity_properties_follow_their_scene_knobs() {
        let cfg = SceneConfig::diverse();
        let occluded = SceneParams::nominal().with_occlusion(cfg.occlusion_threshold + 0.1, 0.4);
        assert!(PropertyKind::Occluded.holds(&occluded, &cfg));
        assert!(!PropertyKind::Occluded.holds(&SceneParams::nominal(), &cfg));
        let rainy = SceneParams::nominal().with_rain(cfg.heavy_rain_threshold + 0.1, 0.3);
        assert!(PropertyKind::HeavyRain.holds(&rainy, &cfg));
        assert!(!PropertyKind::HeavyRain.holds(&SceneParams::nominal(), &cfg));
        let dashed = SceneParams::nominal().with_dashed_lanes();
        assert!(PropertyKind::DashedLane.holds(&dashed, &cfg));
        assert!(!PropertyKind::DashedLane.holds(&SceneParams::nominal(), &cfg));
    }

    #[test]
    fn satisfiability_tracks_the_odd_configuration() {
        let legacy = SceneConfig::small();
        let diverse = SceneConfig::diverse();
        for p in PropertyKind::ALL {
            assert!(p.satisfiable_in(&diverse), "{p} unsatisfiable in diverse");
        }
        assert!(!PropertyKind::Occluded.satisfiable_in(&legacy));
        assert!(!PropertyKind::HeavyRain.satisfiable_in(&legacy));
        assert!(!PropertyKind::DashedLane.satisfiable_in(&legacy));
        assert!(PropertyKind::BendsRight.satisfiable_in(&legacy));
        // Threshold exactly at the maximum: the satisfying set has measure
        // zero, so the property must count as unsatisfiable.
        let boundary = SceneConfig {
            max_occlusion: 0.25,
            occlusion_threshold: 0.25,
            max_rain: 0.3,
            heavy_rain_threshold: 0.3,
            ..SceneConfig::small()
        };
        assert!(!PropertyKind::Occluded.satisfiable_in(&boundary));
        assert!(!PropertyKind::HeavyRain.satisfiable_in(&boundary));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = PropertyKind::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PropertyKind::ALL.len());
        assert_eq!(format!("{}", PropertyKind::BendsRight), "bends_right");
    }
}
