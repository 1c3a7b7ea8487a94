//! The seeded workload generator.
//!
//! A fixed pool of [`BASES`] base checkpoints shares one characterizer and
//! one cut box; each base carries its three risk families. The run's
//! `--seed` draws the re-parametrisation of every checkpoint the server
//! sees (see below), so different seeds serve different weights for the
//! same verification work: the cost of a run does not hinge on the luck of
//! drawing an easy or a hard network.
//!
//! Verdict classes are known by construction, so every request has a
//! reference without trusting the system under test:
//!
//! * `far` — threshold one unit above the interval upper bound of the
//!   tail output over the cut box: `Safe` by interval reasoning alone;
//! * `near` — threshold just above the constrained output maximum, which
//!   is bracketed by bisection between sampled outputs and thresholds that
//!   a fresh, template-free solve of every sub-box (no server, no pooled
//!   basis) proves unreachable; the threshold sits `NEAR_PROOF_MARGIN`
//!   above a proved one: `Safe`, but only branch-and-bound can show it;
//! * `reach` — threshold one unit below the interval lower bound, and the
//!   characterizer bias is set so that it fires on a sampled point of every
//!   sub-box: `Unsafe`, with that point as a concrete witness.
//!
//! Derived checkpoints keep these classes: a re-parametrisation permutes
//! and positively rescales the tail's hidden units (the same function in
//! different weights), a tiny retrain moves tail weights by `TINY_EPS`
//! (far inside the near margin), and a head-only retrain leaves the tail
//! untouched.

use dpv_absint::{AbstractDomain, BoxDomain, Interval};
use dpv_core::{encode_verification, split_box, Characterizer, InputProperty, RiskCondition};
use dpv_core::{StartRegion, Verdict};
use dpv_lp::{BranchAndBoundBackend, MilpStatus, SolverBackend};
use dpv_nn::{Activation, Dense, Layer, Network};
use dpv_serve::{RegionSpec, VerificationRequest};
use dpv_tensor::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The cut layer: the perception network is
/// `dense(4→10) relu dense(10→8) relu | dense(8→W) relu dense(W→W) relu dense(W→2)`.
pub const CUT: usize = 3;
/// Width of the cut layer (the region's dimension).
const CUT_WIDTH: usize = 8;
/// Width of the tail's two hidden ReLU layers.
const TAIL_WIDTH: usize = 4;
/// Bisection levels of the cut box: `2^4` sub-boxes per family.
const SUBDIVISION: u32 = 4;
/// Sub-boxes per family.
pub const SUB_BOXES: usize = 1 << SUBDIVISION;
/// Risk families per request (`far`, `near`, `reach`).
pub const FAMILIES: usize = 3;
/// Obligations per request.
pub const OBLIGATIONS: usize = FAMILIES * SUB_BOXES;
/// Base checkpoints per seed. Requests rotate over the pool, so one run
/// averages over several networks instead of one network's luck.
pub const BASES: usize = 8;

/// Seed of the base pool, characterizer and cut box.
const POOL_SEED: u64 = 0x5eed_da7e_2020;
/// Network indices of the tail's dense layers.
const TAIL_DENSE: [usize; 3] = [4, 6, 8];
/// Weight step of a tiny tail retrain.
const TINY_EPS: f64 = 1e-7;
/// Tolerance of the bisection for the constrained output maximum, as a
/// share of the interval output range: the near threshold sits at most
/// this far above the maximum, which sets the branch-and-bound work.
const NEAR_GAP: f64 = 0.01;
/// Margin below the near threshold at which the reference proves `Safe`,
/// as a share of the interval output range. It covers every output change
/// a derived checkpoint can make.
const NEAR_PROOF_MARGIN: f64 = 1e-3;
/// Characterizer logit at the weakest sub-box witness.
const WITNESS_LOGIT: f64 = 0.05;

/// The three risk families, in request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Interval-provable `Safe`.
    Far,
    /// `Safe` that needs branch-and-bound.
    Near,
    /// `Unsafe`.
    Reach,
}

impl Family {
    /// Families in obligation order.
    pub const ALL: [Family; FAMILIES] = [Family::Far, Family::Near, Family::Reach];

    /// The reference verdict class: `true` for `Unsafe`.
    pub fn expects_unsafe(self) -> bool {
        self == Family::Reach
    }

    fn name(self) -> &'static str {
        match self {
            Family::Far => "far",
            Family::Near => "near",
            Family::Reach => "reach",
        }
    }
}

/// How a checkpoint derives from its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Variant {
    /// Re-parametrise the tail's hidden units with this seed.
    pub reparam: Option<u64>,
    /// Apply the tiny tail retrain.
    pub tiny: bool,
    /// Apply the head-only retrain.
    pub head: bool,
}

/// The three delta retrain kinds, rotated step by step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Only layers before the cut change: every verdict is reused.
    HeadOnly,
    /// Tail weights move by `TINY_EPS`: `far` is absorbed, the rest re-proved.
    TinyTail,
    /// The tail is re-parametrised: everything is re-proved.
    LargerTail,
}

impl StepKind {
    /// The kind of delta step `step`.
    pub fn of(step: usize) -> StepKind {
        match step % 3 {
            0 => StepKind::HeadOnly,
            1 => StepKind::TinyTail,
            _ => StepKind::LargerTail,
        }
    }
}

/// One base checkpoint and its risk family.
#[derive(Debug, Clone)]
pub struct Base {
    /// The checkpoint before any variant is applied.
    pub network: Network,
    /// `far`, `near`, `reach`, in that order.
    pub risks: Vec<RiskCondition>,
}

/// Everything generated from one seed.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The seed it was generated from.
    pub seed: u64,
    /// The characterizer shared by every request.
    pub characterizer: Characterizer,
    /// The cut-layer box every request verifies.
    pub root: BoxDomain,
    /// The sub-boxes of `root`, in the server's obligation order.
    pub sub_boxes: Vec<BoxDomain>,
    /// The base checkpoints.
    pub bases: Vec<Base>,
}

/// SplitMix64 finaliser: decorrelates derived seeds.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn dense(rng: &mut StdRng, inputs: usize, outputs: usize, bias: f64) -> Layer {
    let scale = 1.5 / (inputs as f64).sqrt();
    let mut weights = Matrix::zeros(outputs, inputs);
    for r in 0..outputs {
        for c in 0..inputs {
            weights[(r, c)] = rng.gen_range(-scale..scale);
        }
    }
    let bias = Vector::from_vec((0..outputs).map(|_| rng.gen_range(-bias..bias)).collect());
    Layer::Dense(Dense::from_parts(weights, bias))
}

fn relu() -> Layer {
    Layer::Activation(Activation::ReLU)
}

fn network(input: usize, layers: Vec<Layer>) -> Network {
    Network::new(input, layers).expect("generated layer dimensions chain")
}

fn dense_mut(network: &mut Network, layer: usize) -> &mut Dense {
    match &mut network.layers_mut()[layer] {
        Layer::Dense(d) => d,
        _ => unreachable!("layer {layer} is dense by construction"),
    }
}

/// Deterministically enumerates the sub-boxes after `levels` bisections,
/// left child first — the order the server assigns obligation indices in.
fn bisect(root: &BoxDomain, levels: u32, out: &mut Vec<BoxDomain>) {
    if levels == 0 {
        out.push(root.clone());
        return;
    }
    let (left, right) = split_box(root);
    bisect(&left, levels - 1, out);
    bisect(&right, levels - 1, out);
}

/// A uniform sample of `b`.
fn sample(rng: &mut StdRng, b: &BoxDomain) -> Vector {
    Vector::from_vec(
        b.bounds()
            .iter()
            .map(|i| rng.gen_range(i.lo..=i.hi))
            .collect(),
    )
}

/// The tail (layers after the cut) of `network`.
pub fn tail(network: &Network) -> Network {
    network
        .split_at(CUT)
        .expect("the cut is inside the network")
        .1
}

fn output_range(tail: &Network, region: &BoxDomain) -> Interval {
    region.propagate(tail.layers()).to_box()[0]
}

/// The tail output of a near-family counterexample at `threshold`, from
/// a fresh template-free solve — `None` when every sub-box is proved
/// `Safe`. Sub-boxes whose interval bound stays below the threshold are
/// `Safe` without a solve.
fn near_counterexample(
    tail: &Network,
    characterizer: &Characterizer,
    threshold: f64,
    sub_boxes: &[BoxDomain],
) -> Result<Option<f64>, String> {
    let risk = RiskCondition::new("near").output_ge(0, threshold);
    for sub in sub_boxes {
        if output_range(tail, sub).hi < threshold {
            continue;
        }
        let encoded = encode_verification(
            tail.layers(),
            Some(characterizer.network()),
            &risk,
            &StartRegion::Box(sub.clone()),
        )
        .map_err(|e| format!("reference encoding failed: {e}"))?;
        let solution = BranchAndBoundBackend.solve(&encoded.milp);
        match solution.status {
            MilpStatus::Infeasible => {}
            MilpStatus::Optimal => {
                let activation: Vector = encoded
                    .cut_vars
                    .iter()
                    .map(|&v| solution.values[v])
                    .collect();
                return Ok(Some(tail.forward(&activation)[0]));
            }
            other => return Err(format!("reference solve ended {other:?}")),
        }
    }
    Ok(None)
}

impl Spec {
    /// Generates the spec of run seed `seed` over the first `bases` base
    /// checkpoints of the pool.
    ///
    /// # Errors
    /// When the near threshold cannot be calibrated (the reference solver
    /// gave up), which no seed is expected to hit.
    pub fn generate(seed: u64, bases: usize) -> Result<Spec, String> {
        let mut rng = StdRng::seed_from_u64(POOL_SEED);
        let root = BoxDomain::from_intervals(
            (0..CUT_WIDTH)
                .map(|_| Interval::new(0.0, rng.gen_range(0.6..1.4)))
                .collect(),
        );
        let mut sub_boxes = Vec::with_capacity(SUB_BOXES);
        bisect(&root, SUBDIVISION, &mut sub_boxes);
        let characterizer = Self::characterizer(&mut rng, &sub_boxes)?;
        let bases = (0..bases)
            .map(|b| {
                Self::base(
                    mix(POOL_SEED, b as u64 + 1),
                    &characterizer,
                    &root,
                    &sub_boxes,
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            seed,
            characterizer,
            root,
            sub_boxes,
            bases,
        })
    }

    /// A random `dense(8→4) relu dense(4→1)` head whose output bias is set
    /// so that its logit is at least `WITNESS_LOGIT` at the best of 32
    /// samples of every sub-box.
    fn characterizer(rng: &mut StdRng, sub_boxes: &[BoxDomain]) -> Result<Characterizer, String> {
        let mut head = network(
            CUT_WIDTH,
            vec![dense(rng, CUT_WIDTH, 4, 0.3), relu(), dense(rng, 4, 1, 0.3)],
        );
        // The best of 32 samples per sub-box; after the shift, each is a
        // witness on which the characterizer fires.
        let witnesses: Vec<Vector> = sub_boxes
            .iter()
            .map(|sub| {
                (0..32)
                    .map(|_| sample(rng, sub))
                    .max_by(|a, b| head.forward(a)[0].total_cmp(&head.forward(b)[0]))
                    .expect("32 samples")
            })
            .collect();
        let weakest = witnesses
            .iter()
            .map(|w| head.forward(w)[0])
            .fold(f64::INFINITY, f64::min);
        dense_mut(&mut head, 2).bias_mut()[0] += WITNESS_LOGIT - weakest;
        if witnesses
            .iter()
            .any(|w| head.forward(w)[0] < WITNESS_LOGIT / 2.0)
        {
            return Err("characterizer witnesses do not fire".into());
        }
        Characterizer::from_network(
            InputProperty::new("lead-vehicle-visible", "seeded direct-perception property"),
            CUT,
            head,
            1.0,
        )
        .map_err(|e| e.to_string())
    }

    fn base(
        seed: u64,
        characterizer: &Characterizer,
        root: &BoxDomain,
        sub_boxes: &[BoxDomain],
    ) -> Result<Base, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = TAIL_WIDTH;
        let network = network(
            4,
            vec![
                dense(&mut rng, 4, 10, 0.3),
                relu(),
                dense(&mut rng, 10, CUT_WIDTH, 0.3),
                relu(),
                dense(&mut rng, CUT_WIDTH, w, 0.3),
                relu(),
                dense(&mut rng, w, w, 0.3),
                relu(),
                dense(&mut rng, w, 2, 0.3),
            ],
        );
        let tail = tail(&network);
        let range = output_range(&tail, root);
        let width = (range.hi - range.lo).max(1e-6);

        // Bisect for the constrained output maximum: `reached` is a value
        // some point attains (first sampled, then counterexamples), `safe`
        // a threshold proved unreachable. The interval bound starts `safe`.
        let mut reached = (0..512)
            .map(|_| sample(&mut rng, root))
            .filter(|x| characterizer.logit(x) >= 0.0)
            .map(|x| tail.forward(&x)[0])
            .fold(range.lo, f64::max);
        let mut safe = range.hi + NEAR_GAP * width;
        while safe - reached > NEAR_GAP * width {
            let mid = (reached + safe) / 2.0;
            match near_counterexample(&tail, characterizer, mid, sub_boxes)? {
                None => safe = mid,
                Some(y) => reached = reached.max(y).max(mid),
            }
        }
        // Proved unreachable `NEAR_PROOF_MARGIN` below the threshold.
        let near = safe + NEAR_PROOF_MARGIN * width;

        let risks = [range.hi + 1.0, near, range.lo - 1.0]
            .iter()
            .zip(Family::ALL)
            .map(|(&t, f)| RiskCondition::new(f.name()).output_ge(0, t))
            .collect();
        Ok(Base { network, risks })
    }

    /// The checkpoint `variant` of base `base`.
    pub fn checkpoint(&self, base: usize, variant: Variant) -> Network {
        let mut net = self.bases[base].network.clone();
        if let Some(seed) = variant.reparam {
            reparametrise(&mut net, seed);
        }
        if variant.tiny {
            let d = dense_mut(&mut net, TAIL_DENSE[1]);
            for r in 0..d.output_dim() {
                for c in 0..d.input_dim() {
                    d.weights_mut()[(r, c)] += TINY_EPS * (1.0 + (r + c) as f64 * 0.1);
                }
            }
        }
        if variant.head {
            let d = dense_mut(&mut net, 0);
            for r in 0..d.output_dim() {
                for c in 0..d.input_dim() {
                    d.weights_mut()[(r, c)] += 0.05 * (1.0 + (r * c) as f64 * 0.01);
                }
            }
        }
        net
    }

    /// The request for checkpoint `variant` of base `base`.
    pub fn request(&self, base: usize, variant: Variant) -> VerificationRequest {
        VerificationRequest {
            perception: self.checkpoint(base, variant),
            cut_layer: CUT,
            characterizer: self.characterizer.clone(),
            risks: self.bases[base].risks.clone(),
            region: RegionSpec::Single(StartRegion::Box(self.root.clone())),
            subdivision: SUBDIVISION,
            deadline: None,
        }
    }

    /// `count` cold requests: request `j` is a fresh re-parametrisation of
    /// base `j % BASES`, so no cache key repeats.
    pub fn cold_stream(&self, count: usize) -> Vec<VerificationRequest> {
        (0..count)
            .map(|j| self.request(j % self.bases.len(), self.start(j, 0x1000_0000)))
            .collect()
    }

    /// `count` re-parametrised checkpoints of the warm-solver set, rotating
    /// over the bases.
    pub fn warm_set(&self, count: usize) -> Vec<VerificationRequest> {
        (0..count)
            .map(|j| self.request(j % self.bases.len(), self.start(j, 0x3000_0000)))
            .collect()
    }

    /// The seeded starting checkpoint `j` of a stream tagged `tag`.
    fn start(&self, j: usize, tag: u64) -> Variant {
        Variant {
            reparam: Some(mix(self.seed, tag + j as u64)),
            ..Variant::default()
        }
    }

    /// The delta workload: one chain per base. The first `BASES` requests
    /// start the chains; request `BASES + i` is step `i` of chain
    /// `i % BASES`, a retrain of kind [`StepKind::of`]`(i)` of that
    /// chain's previous checkpoint.
    pub fn delta_chain(&self, steps: usize) -> Vec<VerificationRequest> {
        let chains = self.bases.len();
        let mut state: Vec<Variant> = (0..chains).map(|c| self.start(c, 0x4000_0000)).collect();
        let mut out: Vec<VerificationRequest> =
            (0..chains).map(|b| self.request(b, state[b])).collect();
        for i in 0..steps {
            let c = i % chains;
            let s = &mut state[c];
            match StepKind::of(i) {
                StepKind::HeadOnly => s.head = !s.head,
                StepKind::TinyTail => s.tiny = !s.tiny,
                StepKind::LargerTail => s.reparam = Some(mix(self.seed, 0x2000_0000 + i as u64)),
            }
            out.push(self.request(c, *s));
        }
        out
    }

    /// Whether a verdict has the reference class of family `family`.
    pub fn expected(&self, family: usize, verdict: &Verdict) -> bool {
        match verdict {
            Verdict::Safe => !Family::ALL[family].expects_unsafe(),
            Verdict::Unsafe(_) => Family::ALL[family].expects_unsafe(),
            Verdict::Unknown(_) => false,
        }
    }
}

/// Permutes and positively rescales both hidden layers of the tail,
/// compensating in the next layer: the function is unchanged (up to
/// rounding) while every tail weight moves.
fn reparametrise(net: &mut Network, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for pair in TAIL_DENSE.windows(2) {
        let (into, out_of) = (pair[0], pair[1]);
        let width = dense_mut(net, into).output_dim();
        let mut perm: Vec<usize> = (0..width).collect();
        perm.shuffle(&mut rng);
        let scale: Vec<f64> = (0..width).map(|_| rng.gen_range(0.5..2.0)).collect();

        let d = dense_mut(net, into);
        let (w, b) = (d.weights().clone(), d.bias().clone());
        for (i, &p) in perm.iter().enumerate() {
            for c in 0..d.input_dim() {
                d.weights_mut()[(i, c)] = scale[i] * w[(p, c)];
            }
            d.bias_mut()[i] = scale[i] * b[p];
        }
        let d = dense_mut(net, out_of);
        let w = d.weights().clone();
        for r in 0..d.output_dim() {
            for (i, &p) in perm.iter().enumerate() {
                d.weights_mut()[(r, i)] = w[(r, p)] / scale[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(a: &[VerificationRequest], b: &[VerificationRequest]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.perception == y.perception
                    && x.characterizer == y.characterizer
                    && x.risks == y.risks
            })
    }

    #[test]
    fn generator_is_deterministic_for_a_seed() {
        let a = Spec::generate(7, 2).unwrap();
        let b = Spec::generate(7, 2).unwrap();
        assert!(same(&a.cold_stream(4), &b.cold_stream(4)));
        assert!(same(&a.warm_set(4), &b.warm_set(4)));
        assert!(same(&a.delta_chain(6), &b.delta_chain(6)));

        // Another seed serves other weights for the same verification work.
        let c = Spec::generate(8, 2).unwrap();
        assert!(!same(&a.cold_stream(4), &c.cold_stream(4)));
        assert_eq!(a.bases[1].risks, c.bases[1].risks);
    }

    #[test]
    fn reparametrisation_keeps_the_function_and_moves_every_tail_weight() {
        let spec = Spec::generate(3, 1).unwrap();
        let base = spec.checkpoint(0, Variant::default());
        let moved = spec.checkpoint(0, spec.start(0, 0));
        for layer in TAIL_DENSE {
            assert_ne!(base.layers()[layer], moved.layers()[layer]);
        }
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..32 {
            let x = sample(&mut rng, &spec.root);
            let (a, b) = (tail(&base).forward(&x)[0], tail(&moved).forward(&x)[0]);
            assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn delta_steps_rotate_through_the_three_retrain_kinds() {
        let spec = Spec::generate(5, 2).unwrap();
        let chain = spec.delta_chain(6);
        let tail_of = |i: usize| tail(&chain[i].perception);
        // Two chains: step `i` is request `2 + i` and retrains chain `i % 2`.
        // Steps 0 and 3 are head-only: the chain keeps its tail.
        assert_eq!(tail_of(2), tail_of(0));
        assert_ne!(chain[2].perception, chain[0].perception);
        assert_eq!(tail_of(5), tail_of(3));
        // Step 1 is a tiny tail retrain, step 2 a re-parametrisation.
        assert_ne!(tail_of(3), tail_of(1));
        assert_ne!(tail_of(4), tail_of(2));
    }
}
