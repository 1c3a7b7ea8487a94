//! Property tests of the one MILP encoder.
//!
//! * Every entry point builds the identical problem for the same region:
//!   `encode_verification`, `EncodingTemplate::instantiate`,
//!   `instantiate_with` fed one lane of a batched bound sweep (or the scalar
//!   bounds of an octagon), and both `_into` variants writing over a scratch
//!   that held another region's problem.
//! * The encoding is exact: with the cut-layer variables fixed to a point of
//!   the region, the MILP is feasible exactly when the tail output at that
//!   point meets the risk and the characterizer logit is non-negative.

use dpv_absint::{AbstractDomain, BoxDomain, Interval, OctagonLite};
use dpv_core::{encode_verification, EncodedProblem, EncodingTemplate, RiskCondition, StartRegion};
use dpv_lp::MilpStatus;
use dpv_nn::{Activation, BatchNorm1d, Dense, Layer, Network};
use dpv_tensor::{Matrix, Vector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense layer with weights in [-1, 1]. Its first neuron's bias is +8 and
/// its second's −8 (when it has two), which no input in [-1, 1]^4 can
/// overcome: a ReLU after it then has a stable-active and a stable-inactive
/// neuron, and the others are left to the region.
fn dense(rng: &mut StdRng, inputs: usize, outputs: usize) -> Layer {
    let rows: Vec<Vec<f64>> = (0..outputs)
        .map(|_| (0..inputs).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let bias: Vec<f64> = (0..outputs)
        .map(|j| match j {
            0 => 8.0,
            1 => -8.0,
            _ => rng.gen_range(-0.5..0.5),
        })
        .collect();
    Layer::Dense(Dense::from_parts(
        Matrix::from_rows(&rows).unwrap(),
        Vector::from_vec(bias),
    ))
}

/// A batch norm with random statistics.
fn batch_norm(rng: &mut StdRng, dim: usize) -> Layer {
    let mut vector =
        |lo: f64, hi: f64| Vector::from_vec((0..dim).map(|_| rng.gen_range(lo..hi)).collect());
    let (gamma, beta, mean, var) = (
        vector(0.5, 1.5),
        vector(-0.5, 0.5),
        vector(-0.5, 0.5),
        vector(0.5, 2.0),
    );
    Layer::BatchNorm(BatchNorm1d::from_parts(gamma, beta, mean, var, 1e-5))
}

/// One to three hidden layers of Dense, then ReLU or BatchNorm (a ReLU
/// after a batch norm now and then), then a dense output layer.
fn random_chain(rng: &mut StdRng, input_dim: usize, out_dim: usize) -> Network {
    let mut layers = Vec::new();
    let mut dim = input_dim;
    for _ in 0..rng.gen_range(1usize..4) {
        let width = rng.gen_range(2usize..6);
        layers.push(dense(rng, dim, width));
        dim = width;
        if rng.gen_bool(0.3) {
            layers.push(batch_norm(rng, dim));
        }
        if rng.gen_bool(0.8) {
            layers.push(Layer::Activation(Activation::ReLU));
        }
    }
    layers.push(dense(rng, dim, out_dim));
    Network::new(input_dim, layers).unwrap()
}

/// A random sub-box of [-1, 1]^dim: a point, a narrow box or a wide one.
fn random_sub_box(rng: &mut StdRng, dim: usize) -> BoxDomain {
    let width: f64 = [0.0, 0.05, 0.5, 2.0][rng.gen_range(0usize..4)];
    let bounds: Vec<Interval> = (0..dim)
        .map(|_| {
            let lo: f64 = rng.gen_range(-1.0..1.0 - width.min(1.9));
            Interval::new(lo, (lo + width).min(1.0))
        })
        .collect();
    BoxDomain::from_intervals(bounds)
}

/// Asserts that two encodings are the same problem, field by field.
fn assert_same_problem(a: &EncodedProblem, b: &EncodedProblem) {
    assert_eq!(a.milp, b.milp);
    assert_eq!(a.cut_vars, b.cut_vars);
    assert_eq!(a.output_vars, b.output_vars);
    assert_eq!(a.logit_var, b.logit_var);
    assert_eq!(a.num_binaries, b.num_binaries);
    assert_eq!(a.stable_relus, b.stable_relus);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_entry_point_builds_the_same_problem(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0e1c);
        let dim = rng.gen_range(2usize..5);
        let outputs = rng.gen_range(1usize..3);
        let tail = random_chain(&mut rng, dim, outputs);
        let characterizer = rng.gen_bool(0.7).then(|| random_chain(&mut rng, dim, 1));
        let risk = RiskCondition::new("r").output_ge(0, rng.gen_range(-2.0..2.0));
        let octagonal = rng.gen_bool(0.3);
        let octagon = |b: &BoxDomain, rng: &mut StdRng| {
            let diffs = (1..dim)
                .map(|_| {
                    let lo: f64 = rng.gen_range(-2.0..0.0);
                    Interval::new(lo, lo + rng.gen_range(0.0..2.5))
                })
                .collect();
            StartRegion::Octagon(OctagonLite::from_parts(b.bounds().to_vec(), diffs))
        };
        let root_box = BoxDomain::uniform(dim, -1.0, 1.0);
        let root = if octagonal {
            octagon(&root_box, &mut rng)
        } else {
            StartRegion::Box(root_box)
        };
        let template =
            EncodingTemplate::build(tail.layers(), characterizer.as_ref(), &risk, &root).unwrap();

        let boxes: Vec<BoxDomain> = (0..4).map(|_| random_sub_box(&mut rng, dim)).collect();
        let regions: Vec<StartRegion> = boxes
            .iter()
            .map(|b| if octagonal { octagon(b, &mut rng) } else { StartRegion::Box(b.clone()) })
            .collect();
        let lanes = if octagonal {
            regions.iter().map(|r| template.region_bounds(r).unwrap()).collect()
        } else {
            template.region_bounds_batch(&boxes.iter().collect::<Vec<_>>()).unwrap()
        };
        let mut scratch = template.instantiate(&regions[regions.len() - 1]).unwrap();
        for (region, lane) in regions.iter().zip(&lanes) {
            prop_assert!(template.supports(region));
            let fresh =
                encode_verification(tail.layers(), characterizer.as_ref(), &risk, region).unwrap();
            assert_same_problem(&template.instantiate(region).unwrap(), &fresh);
            assert_same_problem(&template.instantiate_with(region, lane).unwrap(), &fresh);
            template.instantiate_into(region, &mut scratch).unwrap();
            assert_same_problem(&scratch, &fresh);
            template.instantiate_into_with(region, lane, &mut scratch).unwrap();
            assert_same_problem(&scratch, &fresh);
        }
    }

    #[test]
    fn the_milp_is_feasible_exactly_when_the_point_meets_the_risk(seed in 0u64..1000) {
        let case = exactness_case(seed);
        // Away from the logit boundary, so that LP tolerances cannot decide.
        prop_assume!(case.logit.abs() > 1e-3);
        let mut encoded = case.encoded;
        for (&v, &value) in encoded.cut_vars.iter().zip(&case.point) {
            encoded.milp.lp_mut().set_bounds(v, value, value);
        }
        let status = encoded.milp.solve().status;
        prop_assert_eq!(
            status,
            if case.feasible { MilpStatus::Optimal } else { MilpStatus::Infeasible },
            "logit {}", case.logit
        );
    }
}

/// One exactness case: a point of a random sub-box, the problem of that
/// sub-box with the risk `output ≥ threshold` for a threshold at least
/// 0.01 above or below the output at the point, and whether the point meets
/// the risk with a non-negative logit.
struct Case {
    encoded: EncodedProblem,
    point: Vec<f64>,
    logit: f64,
    feasible: bool,
}

fn exactness_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe4ac7);
    let dim = rng.gen_range(2usize..5);
    let tail = random_chain(&mut rng, dim, 1);
    let characterizer = random_chain(&mut rng, dim, 1);
    let sub = random_sub_box(&mut rng, dim);
    let point: Vec<f64> = sub
        .bounds()
        .iter()
        .map(|iv| iv.lo + (iv.hi - iv.lo) * rng.gen_range(0.0..1.0))
        .collect();
    let x = Vector::from_vec(point.clone());
    let output = tail.forward(&x)[0];
    let logit = characterizer.forward(&x)[0];
    let margin = rng.gen_range(0.01..0.5);
    let threshold = if rng.gen_bool(0.5) {
        output - margin
    } else {
        output + margin
    };
    let risk = RiskCondition::new("r").output_ge(0, threshold);
    let root = StartRegion::Box(BoxDomain::uniform(dim, -1.0, 1.0));
    let template =
        EncodingTemplate::build(tail.layers(), Some(&characterizer), &risk, &root).unwrap();
    Case {
        encoded: template.instantiate(&StartRegion::Box(sub)).unwrap(),
        point,
        logit,
        feasible: output >= threshold && logit >= 0.0,
    }
}

/// The exactness cases mix the three ReLU kinds: every chain whose first
/// hidden layer feeds a ReLU has a stable-active and a stable-inactive
/// neuron there, and many problems keep unstable ones.
#[test]
fn the_exactness_cases_mix_stable_and_unstable_relus() {
    let cases: Vec<Case> = (0..200).map(exactness_case).collect();
    let unstable = cases.iter().filter(|c| c.encoded.num_binaries > 0).count();
    let stable = cases.iter().filter(|c| c.encoded.stable_relus >= 2).count();
    let feasible = cases.iter().filter(|c| c.feasible).count();
    assert!(unstable >= 50, "{unstable} of 200 cases keep a binary");
    assert!(stable >= 100, "{stable} of 200 cases have two stable ReLUs");
    assert!((50..=150).contains(&feasible), "{feasible} of 200 feasible");
}
