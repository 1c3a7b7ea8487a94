//! Canonical structural fingerprints for templates, regions, and cache keys.
//!
//! A [`Fingerprint`] is a 128-bit content hash over the *structure* of a
//! verification object: layer kinds and parameters, risk inequalities,
//! characterizer weights, and region geometry. It replaces the old
//! process-local atomic template counter so that identity is a pure function
//! of content — two templates built from the same `(tail, risk,
//! characterizer, region)` tuple share a fingerprint even across threads,
//! requests, or server restarts, which is what makes cross-run caches
//! possible: the template cache and basis pool of `crate::cache`, and the
//! template and verdict caches of `dpv-serve`.
//!
//! The hash is two independent 64-bit FNV-1a lanes fed with discriminant
//! tags, dimension counts, and the raw IEEE-754 bit patterns of every
//! parameter. Floats are hashed by bit pattern (`f64::to_bits`), so `-0.0`
//! and `0.0` differ and `NaN` payloads are stable. The two lanes use
//! different offset bases and mix a lane index into every word, so a
//! collision requires defeating both simultaneously; with ~10^2 distinct
//! templates alive in a cache the collision probability is negligible
//! (~2^-128 per pair), and the unit tests below pin pairwise distinctness on
//! the bench-model family.

use dpv_absint::{BoxDomain, Interval, OctagonLite};
use dpv_nn::{Layer, Network};

use crate::encode::StartRegion;
use crate::spec::{OutputOp, RiskCondition};

/// 128-bit structural content hash used as the canonical cache key.
///
/// Construct via [`Fingerprint::of_template`] (template identity) or
/// [`Fingerprint::of_region`] (obligation sub-region identity); combine
/// the two for dedup keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    hi: u64,
    lo: u64,
}

impl Fingerprint {
    /// Fingerprint of a template's defining tuple: tail layers, optional
    /// characterizer network, risk condition, and root start region.
    ///
    /// This is the key under which `EncodingTemplate`s are cached and the
    /// guard that scopes `RegionBounds` and pooled warm `BasisSnapshot`s
    /// (`SnapshotPool`) to the template they were derived from.
    pub fn of_template(
        tail: &[Layer],
        characterizer: Option<&Network>,
        risk: &RiskCondition,
        root: &StartRegion,
    ) -> Self {
        let mut h = ContentHasher::new(FINGERPRINT_DOMAIN);
        h.tag(0x01);
        h.word(tail.len() as u64);
        for layer in tail {
            h.layer(layer);
        }
        match characterizer {
            None => h.tag(0x02),
            Some(net) => {
                h.tag(0x03);
                h.word(net.layers().len() as u64);
                for layer in net.layers() {
                    h.layer(layer);
                }
            }
        }
        hash_risk(&mut h, risk);
        hash_region(&mut h, root);
        fingerprint(h)
    }

    /// Fingerprint of a start region (box or octagon).
    pub fn of_region(region: &StartRegion) -> Self {
        let mut h = ContentHasher::new(FINGERPRINT_DOMAIN);
        hash_region(&mut h, region);
        fingerprint(h)
    }

    /// Renders the fingerprint as 32 lowercase hex digits.
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET_HI: u64 = 0xcbf2_9ce4_8422_2325;
// Second lane starts from a different offset (FNV offset xor a golden-ratio
// constant) so the lanes disagree on every input word.
const FNV_OFFSET_LO: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15;

/// The tag domain of [`Fingerprint`] hashes (`"tag"` in ASCII).
const FINGERPRINT_DOMAIN: u64 = 0x7461_6700;

/// Two-lane FNV-1a accumulator over 64-bit words: the one content hasher
/// of the workspace, behind [`Fingerprint`] here and the checkpoint
/// digests of `dpv-delta`.
///
/// Each user hashes under its own *tag domain*, the high bits of every
/// discriminant tag, so the same object hashed for two purposes yields
/// unrelated values.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    hi: u64,
    lo: u64,
    domain: u64,
}

impl ContentHasher {
    /// A fresh accumulator whose tags carry `domain` in their high bits.
    pub fn new(domain: u64) -> Self {
        Self {
            hi: FNV_OFFSET_HI,
            lo: FNV_OFFSET_LO,
            domain,
        }
    }

    /// Feeds one 64-bit word.
    pub fn word(&mut self, w: u64) {
        for (lane, state) in [(0u64, &mut self.hi), (1u64, &mut self.lo)] {
            let mut s = *state;
            // Mix the lane index into each byte so the lanes are not related
            // by a simple offset.
            for byte in w.to_le_bytes() {
                s ^= u64::from(byte) ^ (lane << 7);
                s = s.wrapping_mul(FNV_PRIME);
            }
            *state = s;
        }
    }

    /// Feeds a discriminant tag within this hasher's domain.
    pub fn tag(&mut self, t: u8) {
        self.word(self.domain | u64::from(t));
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn floats(&mut self, vs: &[f64]) {
        self.word(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    /// Feeds everything that determines a layer's function: kind,
    /// dimensions and every parameter by bit pattern.
    pub fn layer(&mut self, layer: &Layer) {
        match layer {
            Layer::Dense(d) => {
                self.tag(0x20);
                self.word(d.input_dim() as u64);
                self.word(d.output_dim() as u64);
                self.floats(d.weights().as_slice());
                self.floats(d.bias().as_slice());
            }
            Layer::Activation(a) => {
                use dpv_nn::Activation::*;
                match a {
                    Identity => self.tag(0x21),
                    ReLU => self.tag(0x22),
                    LeakyReLU(slope) => {
                        self.tag(0x23);
                        self.f64(*slope);
                    }
                    Sigmoid => self.tag(0x24),
                    Tanh => self.tag(0x25),
                }
            }
            Layer::BatchNorm(bn) => {
                self.tag(0x26);
                self.word(bn.dim() as u64);
                self.floats(bn.gamma().as_slice());
                self.floats(bn.beta().as_slice());
                self.floats(bn.running_mean().as_slice());
                self.floats(bn.running_var().as_slice());
                self.f64(bn.eps());
            }
            Layer::Conv2d(c) => {
                self.tag(0x27);
                let shape = c.input_shape();
                self.word(shape.channels as u64);
                self.word(shape.height as u64);
                self.word(shape.width as u64);
                self.word(c.kernel() as u64);
                self.word(c.stride() as u64);
                self.floats(c.weights().as_slice());
                self.floats(c.bias().as_slice());
            }
            Layer::MaxPool2d(p) => {
                self.tag(0x28);
                let shape = p.input_shape();
                self.word(shape.channels as u64);
                self.word(shape.height as u64);
                self.word(shape.width as u64);
                self.word(p.pool() as u64);
            }
            Layer::Flatten(f) => {
                self.tag(0x29);
                let shape = f.shape();
                self.word(shape.channels as u64);
                self.word(shape.height as u64);
                self.word(shape.width as u64);
            }
        }
    }

    /// The two lanes, high lane first.
    pub fn finish(self) -> (u64, u64) {
        (self.hi, self.lo)
    }
}

fn fingerprint(h: ContentHasher) -> Fingerprint {
    let (hi, lo) = h.finish();
    Fingerprint { hi, lo }
}

fn hash_risk(h: &mut ContentHasher, risk: &RiskCondition) {
    // The display name is cosmetic and deliberately excluded: two risks with
    // identical inequalities describe the same property.
    h.tag(0x30);
    h.word(risk.inequalities().len() as u64);
    for ineq in risk.inequalities() {
        h.floats(&ineq.coeffs);
        match ineq.op {
            OutputOp::Le => h.tag(0x31),
            OutputOp::Ge => h.tag(0x32),
        }
        h.f64(ineq.rhs);
    }
}

fn hash_box(h: &mut ContentHasher, domain: &BoxDomain) {
    hash_intervals(h, domain.bounds());
}

fn hash_intervals(h: &mut ContentHasher, bounds: &[Interval]) {
    h.word(bounds.len() as u64);
    for iv in bounds {
        h.f64(iv.lo);
        h.f64(iv.hi);
    }
}

fn hash_octagon(h: &mut ContentHasher, oct: &OctagonLite) {
    hash_intervals(h, oct.bounds());
    hash_intervals(h, oct.diffs());
}

fn hash_region(h: &mut ContentHasher, region: &StartRegion) {
    match region {
        StartRegion::Box(b) => {
            h.tag(0x40);
            hash_box(h, b);
        }
        StartRegion::Octagon(o) => {
            h.tag(0x41);
            hash_octagon(h, o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RiskCondition;
    use dpv_absint::AbstractDomain;
    use dpv_nn::{Activation, NetworkBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bench_tail(seed: u64) -> Vec<Layer> {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = NetworkBuilder::new(4)
            .dense(6, &mut rng)
            .activation(Activation::ReLU)
            .dense(3, &mut rng)
            .build();
        net.layers().to_vec()
    }

    fn bench_characterizer(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new(4)
            .dense(5, &mut rng)
            .activation(Activation::ReLU)
            .dense(1, &mut rng)
            .build()
    }

    fn region(lo: f64, hi: f64) -> StartRegion {
        StartRegion::Box(BoxDomain::uniform(4, lo, hi))
    }

    #[test]
    fn identical_tuples_share_a_fingerprint() {
        let tail = bench_tail(7);
        let ch = bench_characterizer(9);
        let risk = RiskCondition::new("r").output_ge(0, 0.5);
        let a = Fingerprint::of_template(&tail, Some(&ch), &risk, &region(-1.0, 1.0));
        let b = Fingerprint::of_template(&tail, Some(&ch), &risk, &region(-1.0, 1.0));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_tuples_never_collide_on_bench_models() {
        // Vary each component of (tail, characterizer, risk, region)
        // independently and require pairwise-distinct fingerprints.
        let tails = [bench_tail(7), bench_tail(8)];
        let chars = [
            None,
            Some(bench_characterizer(9)),
            Some(bench_characterizer(10)),
        ];
        let risks = [
            RiskCondition::new("a").output_ge(0, 0.25),
            RiskCondition::new("a").output_ge(0, 5.0),
            RiskCondition::new("a").output_ge(1, 0.25),
        ];
        let regions = [region(-1.0, 1.0), region(-1.0, 1.5), region(-0.5, 1.0)];

        let mut fps = Vec::new();
        for tail in &tails {
            for ch in &chars {
                for risk in &risks {
                    for reg in &regions {
                        fps.push(Fingerprint::of_template(tail, ch.as_ref(), risk, reg));
                    }
                }
            }
        }
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "collision between tuple {i} and {j}");
            }
        }
    }

    #[test]
    fn region_fingerprints_distinguish_box_from_octagon() {
        let b = BoxDomain::uniform(3, -1.0, 1.0);
        let oct = OctagonLite::from_parts(b.bounds().to_vec(), vec![Interval::new(-2.0, 2.0); 2]);
        let fb = Fingerprint::of_region(&StartRegion::Box(b));
        let fo = Fingerprint::of_region(&StartRegion::Octagon(oct));
        assert_ne!(fb, fo);
    }

    #[test]
    fn sub_box_fingerprints_are_sensitive_to_every_bound() {
        let base = BoxDomain::uniform(3, -1.0, 1.0);
        let fp = Fingerprint::of_region(&StartRegion::Box(base.clone()));
        for dim in 0..3 {
            let mut bounds = base.bounds().to_vec();
            bounds[dim] = Interval::new(bounds[dim].lo + 1e-9, bounds[dim].hi);
            let shifted = StartRegion::Box(BoxDomain::from_intervals(bounds));
            assert_ne!(fp, Fingerprint::of_region(&shifted), "dim {dim} lo ignored");
        }
    }

    #[test]
    fn hash_values_are_pinned() {
        // Fingerprints key caches across requests and processes, so a
        // change to the word or tag encoding must show up here, not only
        // as a change of the hex length.
        let tail = bench_tail(7);
        let ch = bench_characterizer(9);
        let risk = RiskCondition::new("r").output_ge(0, 0.5);
        let oct = OctagonLite::from_parts(
            BoxDomain::uniform(3, -1.0, 1.0).bounds().to_vec(),
            vec![Interval::new(-2.0, 2.0); 2],
        );
        let pinned = [
            (
                Fingerprint::of_template(&tail, Some(&ch), &risk, &region(-1.0, 1.0)),
                "1d635067d4c0b1e44ba6dce092800055",
            ),
            (
                Fingerprint::of_template(&tail, None, &risk, &region(-1.0, 1.0)),
                "3b6adc83cf14d9e8129c662920d4615d",
            ),
            (
                Fingerprint::of_region(&region(-0.5, 0.25)),
                "ec57854fcae647f95b86ff65a6e47f1c",
            ),
            (
                Fingerprint::of_region(&StartRegion::Octagon(oct)),
                "c9c199e7a6254e6d50fc32e48d201668",
            ),
        ];
        for (i, (fp, hex)) in pinned.iter().enumerate() {
            assert_eq!(fp.to_hex(), *hex, "fingerprint {i}");
        }
    }

    #[test]
    fn hex_rendering_is_stable() {
        let fp = Fingerprint::of_region(&StartRegion::Box(BoxDomain::uniform(2, 0.0, 1.0)));
        assert_eq!(fp.to_hex().len(), 32);
        assert_eq!(fp.to_hex(), format!("{fp}"));
    }
}
