//! Scene parameters and global scene-generation configuration.

/// The hidden state of one road scene. The renderer maps this to pixels;
/// the affordance and property oracles map it to training labels.
///
/// Conventions:
/// * `curvature` > 0 means the road bends to the **right**; the unit is the
///   normalised curvature over the rendered look-ahead (roughly "fraction of
///   the image width the road centre shifts at the horizon").
/// * `ego_offset` > 0 means the ego vehicle sits to the right of the lane
///   centre (in lane-width units, so ±0.5 touches the lane boundary).
/// * `heading_error` > 0 means the ego vehicle points to the right of the
///   road direction (radians, small angles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneParams {
    /// Signed road curvature (positive bends right).
    pub curvature: f64,
    /// Lateral ego offset from the lane centre, in lane widths.
    pub ego_offset: f64,
    /// Ego heading error relative to the road tangent, in radians.
    pub heading_error: f64,
    /// Global illumination factor in `(0, 1]` (1 = full daylight).
    pub lighting: f64,
    /// Standard deviation of additive pixel noise.
    pub noise: f64,
    /// Whether a traffic participant occupies the adjacent (left) lane.
    pub adjacent_traffic: bool,
    /// Longitudinal position of the adjacent traffic participant in `[0, 1]`
    /// (0 = right next to the ego vehicle, 1 = near the horizon). Ignored
    /// when `adjacent_traffic` is `false`.
    pub traffic_distance: f64,
    /// Fraction of the lane markings hidden by a *leading* vehicle in the
    /// ego lane, in `[0, 1]` (0 = no leading vehicle — the historical
    /// default). The renderer paints a dark box over the road centre whose
    /// footprint grows with this fraction, swallowing the centre marking.
    pub occlusion: f64,
    /// Longitudinal position of the leading (occluding) vehicle in `[0, 1]`
    /// (0 = right in front of the ego vehicle, 1 = near the horizon).
    /// Ignored when `occlusion` is zero.
    pub occlusion_position: f64,
    /// Rain-streak density: expected number of streaks per image column
    /// (0 = dry — the historical default). Streaks brighten the pixels they
    /// cross, the classic nuisance perturbation of camera frames in rain.
    pub rain_density: f64,
    /// Length of each rain streak as a fraction of the image height.
    /// Ignored when `rain_density` is zero.
    pub rain_length: f64,
    /// Whether the centre lane marking is rendered *dashed* instead of
    /// solid (`false` — solid — is the historical default). Road-edge
    /// markings stay solid either way.
    pub dashed_lanes: bool,
    /// Fraction of image rows (from the bottom, nearest the ego vehicle)
    /// blanked to zero intensity — a dead sensor region. Any non-zero value
    /// is outside every ODD; it exists for the out-of-ODD taxonomy's
    /// [`crate::OddViolation::SensorDropout`] class.
    pub sensor_dropout: f64,
}

impl Default for SceneParams {
    fn default() -> Self {
        Self {
            curvature: 0.0,
            ego_offset: 0.0,
            heading_error: 0.0,
            lighting: 1.0,
            noise: 0.0,
            adjacent_traffic: false,
            traffic_distance: 0.5,
            occlusion: 0.0,
            occlusion_position: 0.5,
            rain_density: 0.0,
            rain_length: 0.2,
            dashed_lanes: false,
            sensor_dropout: 0.0,
        }
    }
}

impl SceneParams {
    /// A straight, centred, clean daylight scene.
    pub fn nominal() -> Self {
        Self::default()
    }

    /// Returns a copy with the curvature replaced.
    pub fn with_curvature(mut self, curvature: f64) -> Self {
        self.curvature = curvature;
        self
    }

    /// Returns a copy with the ego lateral offset replaced.
    pub fn with_ego_offset(mut self, ego_offset: f64) -> Self {
        self.ego_offset = ego_offset;
        self
    }

    /// Returns a copy with the heading error replaced.
    pub fn with_heading_error(mut self, heading_error: f64) -> Self {
        self.heading_error = heading_error;
        self
    }

    /// Returns a copy with adjacent traffic toggled on at the given distance.
    pub fn with_adjacent_traffic(mut self, distance: f64) -> Self {
        self.adjacent_traffic = true;
        self.traffic_distance = distance.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with a leading vehicle occluding the given fraction of
    /// the lane markings at the given longitudinal position.
    pub fn with_occlusion(mut self, fraction: f64, position: f64) -> Self {
        self.occlusion = fraction.clamp(0.0, 1.0);
        self.occlusion_position = position.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with rain streaks of the given density and length.
    pub fn with_rain(mut self, density: f64, length: f64) -> Self {
        self.rain_density = density.max(0.0);
        self.rain_length = length.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with the centre lane marking rendered dashed.
    pub fn with_dashed_lanes(mut self) -> Self {
        self.dashed_lanes = true;
        self
    }
}

/// Static configuration of the scene generator: image geometry, the ODD
/// parameter ranges, and the thresholds used by the property oracles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneConfig {
    /// Image height in pixels (rows; the bottom row is nearest to the ego vehicle).
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Maximum |curvature| inside the ODD.
    pub max_curvature: f64,
    /// Maximum |ego_offset| inside the ODD (lane widths).
    pub max_ego_offset: f64,
    /// Maximum |heading_error| inside the ODD (radians).
    pub max_heading_error: f64,
    /// Minimum lighting factor inside the ODD.
    pub min_lighting: f64,
    /// Maximum pixel-noise standard deviation inside the ODD.
    pub max_noise: f64,
    /// Curvature magnitude above which a scene counts as "strongly bending".
    pub strong_bend_threshold: f64,
    /// Curvature magnitude below which a scene counts as "straight".
    pub straight_threshold: f64,
    /// Look-ahead distance (in image heights) at which the next waypoint is placed.
    pub lookahead: f64,
    /// Fraction of in-ODD samples drawn from a deliberately *bimodal*
    /// curvature distribution (half straight scenes with |curvature| below
    /// `straight_threshold`, half tight curves with |curvature| above
    /// `strong_bend_threshold`) instead of the uniform range. `0.0` — the
    /// default — reproduces the uniform sampler bit for bit; values near
    /// `1.0` give the clustered straight-vs-curve workload the envelope
    /// sharding experiments need. Both modes stay inside the ODD.
    pub curvature_mix: f64,
    /// Maximum lane-marking occlusion fraction inside the ODD. `0.0` — the
    /// default — keeps the leading-vehicle dimension off entirely and the
    /// historical RNG stream bit-identical.
    pub max_occlusion: f64,
    /// Occlusion fraction at or above which a scene counts as "occluded"
    /// for [`crate::PropertyKind::Occluded`].
    pub occlusion_threshold: f64,
    /// Maximum rain-streak density inside the ODD. `0.0` — the default —
    /// keeps the rain dimension off entirely and the historical RNG stream
    /// bit-identical.
    pub max_rain: f64,
    /// Rain density at or above which a scene counts as "heavy rain" for
    /// [`crate::PropertyKind::HeavyRain`].
    pub heavy_rain_threshold: f64,
    /// Fraction of in-ODD scenes rendered with a dashed centre marking.
    /// `0.0` — the default — renders every scene with solid markings and
    /// keeps the historical RNG stream bit-identical.
    pub dashed_lane_fraction: f64,
}

impl SceneConfig {
    /// The configuration used throughout the examples, tests and benches:
    /// 16×32 single-channel images, moderate curvature range.
    pub fn small() -> Self {
        Self {
            height: 16,
            width: 32,
            max_curvature: 1.0,
            max_ego_offset: 0.4,
            max_heading_error: 0.2,
            min_lighting: 0.55,
            max_noise: 0.03,
            strong_bend_threshold: 0.5,
            straight_threshold: 0.15,
            lookahead: 1.0,
            curvature_mix: 0.0,
            max_occlusion: 0.0,
            occlusion_threshold: 0.25,
            max_rain: 0.0,
            heavy_rain_threshold: 0.3,
            dashed_lane_fraction: 0.0,
        }
    }

    /// A larger 32×64 configuration, closer to a down-scaled camera frame;
    /// used by the scalability experiment (E6).
    pub fn medium() -> Self {
        Self {
            height: 32,
            width: 64,
            ..Self::small()
        }
    }

    /// The scenario-diversity configuration: every ODD dimension switched
    /// on — partial lane-marking occlusion by leading vehicles, rain
    /// streaks, a dashed-vs-solid lane mix, and the bimodal curvature
    /// distribution — so datasets cover the full scenario taxonomy and the
    /// cut-layer activations are genuinely multi-modal. The thresholds keep
    /// [`crate::PropertyKind::Occluded`] and
    /// [`crate::PropertyKind::HeavyRain`] satisfiable *and* refutable, so
    /// balanced characterizer datasets exist for all properties.
    pub fn diverse() -> Self {
        Self {
            curvature_mix: 0.5,
            max_occlusion: 0.5,
            occlusion_threshold: 0.25,
            max_rain: 0.6,
            heavy_rain_threshold: 0.3,
            dashed_lane_fraction: 0.5,
            ..Self::small()
        }
    }

    /// Number of pixels of a rendered image (single channel).
    pub fn pixel_count(&self) -> usize {
        self.height * self.width
    }
}

impl Default for SceneConfig {
    fn default() -> Self {
        Self::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_scene_is_straight_and_clean() {
        let s = SceneParams::nominal();
        assert_eq!(s.curvature, 0.0);
        assert_eq!(s.lighting, 1.0);
        assert!(!s.adjacent_traffic);
    }

    #[test]
    fn with_builders_replace_fields() {
        let s = SceneParams::nominal()
            .with_curvature(0.7)
            .with_ego_offset(-0.2)
            .with_heading_error(0.1)
            .with_adjacent_traffic(1.5);
        assert_eq!(s.curvature, 0.7);
        assert_eq!(s.ego_offset, -0.2);
        assert_eq!(s.heading_error, 0.1);
        assert!(s.adjacent_traffic);
        assert_eq!(s.traffic_distance, 1.0, "distance is clamped to [0, 1]");
    }

    #[test]
    fn config_pixel_count() {
        assert_eq!(SceneConfig::small().pixel_count(), 512);
        assert_eq!(SceneConfig::medium().pixel_count(), 2048);
        assert_eq!(SceneConfig::default(), SceneConfig::small());
    }

    #[test]
    fn thresholds_are_ordered() {
        let c = SceneConfig::small();
        assert!(c.straight_threshold < c.strong_bend_threshold);
        assert!(c.strong_bend_threshold < c.max_curvature);
    }

    #[test]
    fn nominal_scene_has_every_diversity_knob_off() {
        let s = SceneParams::nominal();
        assert_eq!(s.occlusion, 0.0);
        assert_eq!(s.rain_density, 0.0);
        assert_eq!(s.sensor_dropout, 0.0);
        assert!(!s.dashed_lanes);
    }

    #[test]
    fn diversity_builders_replace_and_clamp() {
        let s = SceneParams::nominal()
            .with_occlusion(1.5, -0.2)
            .with_rain(0.4, 2.0)
            .with_dashed_lanes();
        assert_eq!(s.occlusion, 1.0, "occlusion is clamped to [0, 1]");
        assert_eq!(s.occlusion_position, 0.0);
        assert_eq!(s.rain_density, 0.4);
        assert_eq!(s.rain_length, 1.0, "length is clamped to [0, 1]");
        assert!(s.dashed_lanes);
    }

    #[test]
    fn small_config_keeps_diversity_dimensions_off() {
        let c = SceneConfig::small();
        assert_eq!(c.max_occlusion, 0.0);
        assert_eq!(c.max_rain, 0.0);
        assert_eq!(c.dashed_lane_fraction, 0.0);
    }

    #[test]
    fn diverse_config_enables_every_dimension_with_reachable_thresholds() {
        let c = SceneConfig::diverse();
        assert!(c.max_occlusion > 0.0 && c.occlusion_threshold < c.max_occlusion);
        assert!(c.max_rain > 0.0 && c.heavy_rain_threshold < c.max_rain);
        assert!(c.dashed_lane_fraction > 0.0 && c.dashed_lane_fraction < 1.0);
        assert!(c.curvature_mix > 0.0);
        // Geometry and the historical ODD ranges are untouched.
        assert_eq!(c.pixel_count(), SceneConfig::small().pixel_count());
        assert_eq!(c.max_curvature, SceneConfig::small().max_curvature);
    }
}
