//! Content digests over layer parameters and whole checkpoints.
//!
//! A [`LayerDigest`] hashes everything that determines a layer's
//! input/output function — layer kind, dimensions, and the raw IEEE-754
//! bit patterns of every parameter — and a [`ModelFingerprint`] folds the
//! per-layer digests (plus the input dimension) into one checkpoint
//! identity. Equality of digests is the "untouched" test of
//! delta-verification: two layers with equal digests compute the same
//! function bit-for-bit, so any verdict derived from one holds for the
//! other.
//!
//! The hash is the workspace's two-lane FNV-1a [`ContentHasher`] (shared
//! with `dpv_core::Fingerprint`, which hashes *template* tuples rather
//! than checkpoints) under its own tag domain: two independent 64-bit
//! lanes over discriminant tags, dimension counts and `f64::to_bits` of
//! every parameter, with the lane index mixed into every byte so the
//! lanes are not related by a simple offset. `-0.0` and `0.0` hash
//! differently and NaN payloads are stable — a digest match means
//! byte-identical parameters, never "numerically close".

use std::fmt;

use dpv_core::ContentHasher;
use dpv_nn::{Layer, Network};

/// The tag domain of checkpoint digests (`"dgt"` in ASCII), distinct from
/// `dpv_core::Fingerprint`'s, so a layer hashed as a digest and as part
/// of a template fingerprint gives unrelated values.
const DIGEST_DOMAIN: u64 = 0x6467_7400;

/// 128-bit content hash of one layer's function: kind, dimensions, and
/// every parameter by bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerDigest {
    hi: u64,
    lo: u64,
}

impl LayerDigest {
    /// Digest of one layer.
    pub fn of(layer: &Layer) -> Self {
        let mut h = ContentHasher::new(DIGEST_DOMAIN);
        h.layer(layer);
        let (hi, lo) = h.finish();
        Self { hi, lo }
    }

    /// Renders the digest as 32 lowercase hex digits.
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

impl fmt::Display for LayerDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// 128-bit content hash of a whole checkpoint: the input dimension plus
/// every layer's [`LayerDigest`], in order.
///
/// Two networks share a fingerprint exactly when they are byte-identical
/// as functions — same architecture, same parameters. This is the
/// provenance stamp a reused verdict carries
/// ([`crate::Disposition::Reused`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelFingerprint {
    hi: u64,
    lo: u64,
}

impl ModelFingerprint {
    /// Fingerprint of a checkpoint.
    pub fn of(network: &Network) -> Self {
        Self::from_digests(network.input_dim(), &layer_digests(network))
    }

    /// Folds a checkpoint's input dimension and its per-layer digests, in
    /// layer order, into its fingerprint, so a caller that already holds
    /// the digests does not hash the layers again.
    pub(crate) fn from_digests(input_dim: usize, digests: &[LayerDigest]) -> Self {
        let mut h = ContentHasher::new(DIGEST_DOMAIN);
        h.tag(0x01);
        h.word(input_dim as u64);
        h.word(digests.len() as u64);
        for d in digests {
            h.word(d.hi);
            h.word(d.lo);
        }
        let (hi, lo) = h.finish();
        Self { hi, lo }
    }

    /// Renders the fingerprint as 32 lowercase hex digits.
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

impl fmt::Display for ModelFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Per-layer digests of a checkpoint, aligned with
/// [`dpv_nn::Network::layers`].
pub fn layer_digests(network: &Network) -> Vec<LayerDigest> {
    network.layers().iter().map(LayerDigest::of).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_nn::{Activation, NetworkBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn checkpoint(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new(3)
            .dense(5, &mut rng)
            .activation(Activation::ReLU)
            .batch_norm()
            .dense(2, &mut rng)
            .build()
    }

    #[test]
    fn identical_checkpoints_share_fingerprint_and_digests() {
        let a = checkpoint(7);
        let b = checkpoint(7);
        assert_eq!(ModelFingerprint::of(&a), ModelFingerprint::of(&b));
        assert_eq!(layer_digests(&a), layer_digests(&b));
    }

    #[test]
    fn a_single_bit_flip_changes_exactly_one_layer_digest() {
        let a = checkpoint(9);
        let mut b = a.clone();
        if let Layer::Dense(d) = &mut b.layers_mut()[3] {
            d.weights_mut()[(0, 0)] += 1e-12;
        } else {
            panic!("layer 3 is dense by construction");
        }
        assert_ne!(ModelFingerprint::of(&a), ModelFingerprint::of(&b));
        let da = layer_digests(&a);
        let db = layer_digests(&b);
        for (i, (x, y)) in da.iter().zip(&db).enumerate() {
            if i == 3 {
                assert_ne!(x, y, "perturbed layer must change digest");
            } else {
                assert_eq!(x, y, "untouched layer {i} must keep its digest");
            }
        }
    }

    #[test]
    fn signed_zero_and_activation_kind_are_distinguished() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = NetworkBuilder::new(2).dense(2, &mut rng).build();
        let mut neg = base.clone();
        if let Layer::Dense(d) = &mut neg.layers_mut()[0] {
            d.bias_mut()[0] = -0.0;
        }
        let mut pos = base.clone();
        if let Layer::Dense(d) = &mut pos.layers_mut()[0] {
            d.bias_mut()[0] = 0.0;
        }
        assert_ne!(ModelFingerprint::of(&neg), ModelFingerprint::of(&pos));
        assert_ne!(
            LayerDigest::of(&Layer::Activation(Activation::ReLU)),
            LayerDigest::of(&Layer::Activation(Activation::Tanh)),
        );
        assert_ne!(
            LayerDigest::of(&Layer::Activation(Activation::LeakyReLU(0.1))),
            LayerDigest::of(&Layer::Activation(Activation::LeakyReLU(0.2))),
        );
    }

    #[test]
    fn bench_family_fingerprints_are_pairwise_distinct() {
        let fps: Vec<ModelFingerprint> = (0..8)
            .map(|seed| ModelFingerprint::of(&checkpoint(seed)))
            .collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "collision between seeds {i} and {j}");
            }
        }
    }

    #[test]
    fn hash_values_are_pinned() {
        // Digests are provenance stamps carried by reused verdicts, so
        // their values must not drift with the shared hasher.
        let net = checkpoint(2);
        let pinned = [
            (
                LayerDigest::of(&net.layers()[0]).to_hex(),
                "df7c9184e5770982c751842d80948e9b",
            ),
            (
                LayerDigest::of(&net.layers()[2]).to_hex(),
                "d50ff72023fa195010b6c7b710255db9",
            ),
            (
                LayerDigest::of(&Layer::Activation(Activation::LeakyReLU(0.1))).to_hex(),
                "ae331333ba9db248e88bb9f4fcce5061",
            ),
            (
                ModelFingerprint::of(&net).to_hex(),
                "6d222fd69c10448ae3841f59ee93e0bb",
            ),
        ];
        for (i, (hex, expected)) in pinned.iter().enumerate() {
            assert_eq!(hex, expected, "digest {i}");
        }
    }

    #[test]
    fn hex_rendering_is_stable() {
        let fp = ModelFingerprint::of(&checkpoint(2));
        assert_eq!(fp.to_hex().len(), 32);
        assert_eq!(fp.to_hex(), format!("{fp}"));
        let d = LayerDigest::of(&Layer::Activation(Activation::ReLU));
        assert_eq!(d.to_hex(), format!("{d}"));
    }
}
