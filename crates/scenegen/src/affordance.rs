//! Ground-truth affordances: the next waypoint offset and orientation.

use dpv_tensor::Vector;

use crate::{SceneConfig, SceneParams};

/// Number of affordance outputs produced by the direct-perception network.
pub const AFFORDANCE_DIM: usize = 2;

/// The affordance the paper's network predicts: where the vehicle should go
/// next. Positive values mean "to the right".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affordance {
    /// Lateral offset of the next waypoint relative to the current ego
    /// position, normalised to roughly `[-1, 1]` (positive = steer right).
    pub waypoint_offset: f64,
    /// Orientation (heading) the vehicle should adopt at the waypoint,
    /// normalised to roughly `[-1, 1]` (positive = turned right).
    pub orientation: f64,
}

impl Affordance {
    /// Packs the affordance into the 2-vector used as a network target.
    pub fn to_vector(self) -> Vector {
        Vector::from_slice(&[self.waypoint_offset, self.orientation])
    }

    /// Unpacks an affordance from a network output vector.
    ///
    /// # Panics
    /// Panics when `v.len() < 2`.
    pub fn from_vector(v: &Vector) -> Self {
        assert!(v.len() >= AFFORDANCE_DIM, "affordance vector too short");
        Self {
            waypoint_offset: v[0],
            orientation: v[1],
        }
    }
}

/// Computes the ground-truth affordance for a scene.
///
/// A constant-curvature road of curvature `k` followed for a look-ahead
/// distance `L` displaces the waypoint laterally by `k·L²/2` and rotates the
/// required heading by `k·L`. The ego's own lateral offset and heading error
/// must be compensated, so they enter with a negative sign. Nuisance
/// parameters (lighting, noise, traffic — and the scenario-diversity
/// dimensions: occlusion, rain, dashed markings, sensor dropout) do **not**
/// influence the affordance — this is precisely the causal structure that
/// makes the "traffic participants" property unlearnable from
/// close-to-output layers (information bottleneck, experiment E3).
///
/// The result is returned as the 2-vector `(waypoint_offset, orientation)`.
pub fn affordance(scene: &SceneParams, config: &SceneConfig) -> Vector {
    let lookahead = config.lookahead;
    let curvature_term = 0.5 * scene.curvature * lookahead * lookahead;
    let waypoint_offset =
        (curvature_term - 0.8 * scene.ego_offset - 0.3 * scene.heading_error * lookahead)
            .clamp(-1.0, 1.0);
    let orientation = (scene.curvature * lookahead - 0.6 * scene.heading_error).clamp(-1.0, 1.0);
    Affordance {
        waypoint_offset,
        orientation,
    }
    .to_vector()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SceneConfig {
        SceneConfig::small()
    }

    #[test]
    fn straight_centred_scene_has_zero_affordance() {
        let a = affordance(&SceneParams::nominal(), &cfg());
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn right_bend_requires_steering_right() {
        let a = affordance(&SceneParams::nominal().with_curvature(0.8), &cfg());
        assert!(
            a[0] > 0.2,
            "waypoint offset should be positive, got {}",
            a[0]
        );
        assert!(a[1] > 0.2, "orientation should be positive, got {}", a[1]);
    }

    #[test]
    fn left_bend_requires_steering_left() {
        let a = affordance(&SceneParams::nominal().with_curvature(-0.8), &cfg());
        assert!(a[0] < -0.2);
        assert!(a[1] < -0.2);
    }

    #[test]
    fn ego_offset_is_compensated() {
        // Sitting right of the centre requires steering left (negative offset).
        let a = affordance(&SceneParams::nominal().with_ego_offset(0.4), &cfg());
        assert!(a[0] < 0.0);
    }

    #[test]
    fn traffic_and_lighting_do_not_change_the_affordance() {
        let cfg = cfg();
        let base = SceneParams::nominal().with_curvature(0.5);
        let mut perturbed = base.with_adjacent_traffic(0.4);
        perturbed.lighting = 0.6;
        perturbed.noise = 0.03;
        assert_eq!(affordance(&base, &cfg), affordance(&perturbed, &cfg));
    }

    #[test]
    fn diversity_dimensions_do_not_change_the_affordance() {
        let cfg = cfg();
        let base = SceneParams::nominal()
            .with_curvature(-0.4)
            .with_ego_offset(0.2);
        let mut perturbed = base
            .with_occlusion(0.7, 0.3)
            .with_rain(0.8, 0.4)
            .with_dashed_lanes();
        perturbed.sensor_dropout = 0.3;
        assert_eq!(affordance(&base, &cfg), affordance(&perturbed, &cfg));
    }

    #[test]
    fn affordance_is_monotone_in_curvature() {
        let cfg = cfg();
        let mut last = f64::NEG_INFINITY;
        for i in -5..=5 {
            let k = i as f64 / 5.0;
            let a = affordance(&SceneParams::nominal().with_curvature(k), &cfg);
            assert!(a[0] >= last);
            last = a[0];
        }
    }

    #[test]
    fn affordance_roundtrips_through_struct() {
        let a = Affordance {
            waypoint_offset: 0.3,
            orientation: -0.2,
        };
        let v = a.to_vector();
        assert_eq!(Affordance::from_vector(&v), a);
        assert_eq!(v.len(), AFFORDANCE_DIM);
    }

    #[test]
    fn outputs_are_clamped_to_unit_range() {
        let a = affordance(
            &SceneParams::nominal()
                .with_curvature(5.0)
                .with_ego_offset(-3.0),
            &cfg(),
        );
        assert!(a[0] <= 1.0 && a[1] <= 1.0);
    }
}
