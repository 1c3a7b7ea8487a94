//! Dataset builders: rendered scenes paired with affordance targets or
//! property labels, generated in parallel.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dpv_nn::{Dataset, NnError};
use dpv_tensor::Vector;

use crate::{affordance, render_scene, OddSampler, PropertyKind, SceneConfig, SceneParams};

/// Configuration for dataset generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Scene / image configuration.
    pub scene: SceneConfig,
    /// Number of examples to generate.
    pub samples: usize,
    /// Base RNG seed; generation is deterministic given the seed.
    pub seed: u64,
    /// Number of worker threads used for rendering (1 = sequential).
    pub threads: usize,
}

impl GeneratorConfig {
    /// A small configuration suitable for unit tests and doc examples.
    pub fn small(samples: usize) -> Self {
        Self {
            scene: SceneConfig::small(),
            samples,
            seed: 7,
            threads: 1,
        }
    }

    /// Like [`GeneratorConfig::small`], but over the scenario-diverse ODD
    /// ([`SceneConfig::diverse`]), under which every [`PropertyKind`] is
    /// satisfiable.
    pub fn diverse(samples: usize) -> Self {
        Self {
            scene: SceneConfig::diverse(),
            ..Self::small(samples)
        }
    }
}

/// A generated dataset together with the hidden scenes that produced it.
/// Keeping the scenes around lets callers derive additional labels (e.g. a
/// second property) without re-rendering.
#[derive(Debug, Clone)]
pub struct DatasetBundle {
    /// Rendered input images.
    pub images: Vec<Vector>,
    /// The hidden scene parameters, aligned with `images`.
    pub scenes: Vec<SceneParams>,
}

impl DatasetBundle {
    /// Generates `config.samples` ODD scenes and renders them, using up to
    /// `config.threads` worker threads.
    pub fn generate(config: &GeneratorConfig) -> Self {
        let sampler = OddSampler::new(config.scene);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scenes: Vec<SceneParams> = (0..config.samples)
            .map(|_| sampler.sample_in_odd(&mut rng))
            .collect();
        let images = render_all(&scenes, &config.scene, config.threads);
        Self { images, scenes }
    }

    /// Generates a bundle in which roughly half the scenes satisfy
    /// `property` and half do not — the balanced labelling the paper's
    /// characterizer training assumes.
    ///
    /// # Panics
    /// Panics when `property` is unsatisfiable under the scene
    /// configuration (check [`PropertyKind::satisfiable_in`] first; the
    /// scenario-diversity properties need their ODD dimension enabled,
    /// e.g. via [`crate::SceneConfig::diverse`]).
    pub fn generate_balanced(config: &GeneratorConfig, property: PropertyKind) -> Self {
        assert!(
            property.satisfiable_in(&config.scene),
            "property {property} is unsatisfiable under this scene configuration; \
             enable its ODD dimension (e.g. SceneConfig::diverse())"
        );
        let sampler = OddSampler::new(config.scene);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut scenes = Vec::with_capacity(config.samples);
        for i in 0..config.samples {
            let want_positive = i % 2 == 0;
            let scene = sampler.sample_where(&mut rng, |s| {
                property.holds(s, &config.scene) == want_positive
            });
            scenes.push(scene);
        }
        let images = render_all(&scenes, &config.scene, config.threads);
        Self { images, scenes }
    }

    /// Number of examples in the bundle.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Returns `true` when the bundle holds no examples.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Builds the affordance-regression dataset (image → waypoint/orientation).
    ///
    /// # Errors
    /// Propagates dataset-construction errors (an empty bundle).
    pub fn to_perception_dataset(&self, scene_config: &SceneConfig) -> Result<Dataset, NnError> {
        let targets: Vec<Vector> = self
            .scenes
            .iter()
            .map(|s| affordance(s, scene_config))
            .collect();
        Dataset::new(self.images.clone(), targets)
    }

    /// Builds a binary-label dataset for `property` (image → {0, 1}).
    ///
    /// # Errors
    /// Propagates dataset-construction errors (an empty bundle).
    pub fn to_property_dataset(
        &self,
        property: PropertyKind,
        scene_config: &SceneConfig,
    ) -> Result<Dataset, NnError> {
        let targets: Vec<Vector> = self
            .scenes
            .iter()
            .map(|s| {
                Vector::from_slice(&[if property.holds(s, scene_config) {
                    1.0
                } else {
                    0.0
                }])
            })
            .collect();
        Dataset::new(self.images.clone(), targets)
    }

    /// Ground-truth labels of `property` for every example.
    pub fn property_labels(&self, property: PropertyKind, scene_config: &SceneConfig) -> Vec<bool> {
        self.scenes
            .iter()
            .map(|s| property.holds(s, scene_config))
            .collect()
    }
}

fn render_all(scenes: &[SceneParams], config: &SceneConfig, threads: usize) -> Vec<Vector> {
    let threads = threads.max(1);
    if threads == 1 || scenes.len() < 2 * threads {
        return scenes.iter().map(|s| render_scene(s, config)).collect();
    }
    let chunk = scenes.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = scenes
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|s| render_scene(s, config))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("render worker panicked"))
            .collect()
    })
}

/// Convenience wrapper: generates the perception (affordance regression)
/// dataset in one call.
///
/// # Errors
/// Propagates dataset-construction errors.
pub fn perception_dataset(config: &GeneratorConfig) -> Result<Dataset, NnError> {
    DatasetBundle::generate(config).to_perception_dataset(&config.scene)
}

/// Convenience wrapper: generates a balanced binary dataset for `property`.
///
/// # Errors
/// Propagates dataset-construction errors.
pub fn characterizer_dataset(
    config: &GeneratorConfig,
    property: PropertyKind,
) -> Result<Dataset, NnError> {
    DatasetBundle::generate_balanced(config, property).to_property_dataset(property, &config.scene)
}

/// Generates raw `(image, label)` pairs for `property`, useful when the
/// caller wants to attach its own featureisation (e.g. the characterizer
/// training in `dpv-core`, which featurises through the perception network).
pub fn property_examples<R: Rng + ?Sized>(
    config: &SceneConfig,
    property: PropertyKind,
    samples: usize,
    rng: &mut R,
) -> Vec<(Vector, bool)> {
    assert!(
        property.satisfiable_in(config),
        "property {property} is unsatisfiable under this scene configuration; \
         enable its ODD dimension (e.g. SceneConfig::diverse())"
    );
    let sampler = OddSampler::new(*config);
    (0..samples)
        .map(|i| {
            let want_positive = i % 2 == 0;
            let scene = sampler.sample_where(rng, |s| property.holds(s, config) == want_positive);
            (render_scene(&scene, config), want_positive)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_produces_requested_count() {
        let bundle = DatasetBundle::generate(&GeneratorConfig::small(25));
        assert_eq!(bundle.len(), 25);
        assert!(!bundle.is_empty());
        assert_eq!(bundle.images[0].len(), SceneConfig::small().pixel_count());
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = DatasetBundle::generate(&GeneratorConfig::small(10));
        let b = DatasetBundle::generate(&GeneratorConfig::small(10));
        assert_eq!(a.images, b.images);
        assert_eq!(a.scenes, b.scenes);
    }

    #[test]
    fn parallel_rendering_matches_sequential() {
        let mut cfg = GeneratorConfig::small(32);
        let sequential = DatasetBundle::generate(&cfg);
        cfg.threads = 4;
        let parallel = DatasetBundle::generate(&cfg);
        assert_eq!(sequential.images, parallel.images);
    }

    #[test]
    fn perception_dataset_has_affordance_targets() {
        let data = perception_dataset(&GeneratorConfig::small(12)).unwrap();
        assert_eq!(data.len(), 12);
        assert_eq!(data.target_dim(), crate::AFFORDANCE_DIM);
        assert!(data.targets().iter().all(|t| t.norm_linf() <= 1.0));
    }

    #[test]
    fn balanced_generation_balances_labels() {
        let cfg = GeneratorConfig::small(40);
        let bundle = DatasetBundle::generate_balanced(&cfg, PropertyKind::BendsRight);
        let labels = bundle.property_labels(PropertyKind::BendsRight, &cfg.scene);
        let positives = labels.iter().filter(|&&l| l).count();
        assert_eq!(positives, 20);
    }

    #[test]
    fn characterizer_dataset_targets_are_binary() {
        let data =
            characterizer_dataset(&GeneratorConfig::small(20), PropertyKind::BendsLeft).unwrap();
        assert!(data.targets().iter().all(|t| t[0] == 0.0 || t[0] == 1.0));
    }

    #[test]
    fn property_examples_alternate_labels() {
        let mut rng = StdRng::seed_from_u64(5);
        let examples =
            property_examples(&SceneConfig::small(), PropertyKind::Straight, 10, &mut rng);
        assert_eq!(examples.len(), 10);
        assert!(examples.iter().step_by(2).all(|(_, l)| *l));
        assert!(examples.iter().skip(1).step_by(2).all(|(_, l)| !*l));
    }

    #[test]
    fn balanced_generation_covers_the_diversity_properties() {
        let cfg = GeneratorConfig::diverse(30);
        for property in [
            PropertyKind::Occluded,
            PropertyKind::HeavyRain,
            PropertyKind::DashedLane,
        ] {
            let bundle = DatasetBundle::generate_balanced(&cfg, property);
            let labels = bundle.property_labels(property, &cfg.scene);
            assert_eq!(labels.iter().filter(|&&l| l).count(), 15, "{property}");
        }
    }

    #[test]
    #[should_panic(expected = "unsatisfiable")]
    fn balanced_generation_rejects_unsatisfiable_properties_early() {
        let _ =
            DatasetBundle::generate_balanced(&GeneratorConfig::small(10), PropertyKind::Occluded);
    }
}
