//! Reduction of the tail-network verification problem to MILP: one compact
//! builder fed each region's own interval bounds, and the
//! [`EncodingTemplate`] that caches what the sub-regions of one root share.
//!
//! # One encoder
//!
//! The builder encodes the tail and the characterizer over a start region
//! from per-stage interval bounds of that region (the layout of
//! [`RegionBounds`]):
//!
//! * the cut-layer variables are boxed by the region, and an octagon adds
//!   its adjacent-difference rows;
//! * dense and batch-norm layers add no variable and no row: each neuron is
//!   a sparse affine expression over the LP variables of the stage before;
//! * a ReLU with pre-activation bounds `[l, u]` passes its input expression
//!   through when `l ≥ 0` and is the constant 0 when `u ≤ 0`, with no binary
//!   and no row; otherwise it gets an output `y ∈ [0, u]`, a binary phase
//!   indicator `δ` and the three big-M rows of
//!   [`dpv_lp::encode_relu_big_m`] over its input expression, with `l` and
//!   `u` from this region's bounds, and, like that function, records `δ`,
//!   `y` and the row `y ≥ x` as a [`dpv_lp::ReluLink`] for the search's
//!   branching;
//! * each tail output and the characterizer logit get one variable, pinned
//!   to its expression by an equality row and boxed by the last stage's
//!   bounds; then come the row `logit ≥ 0` and the risk rows over the
//!   output variables.
//!
//! Tight bounds therefore shrink both the number of binaries and the big-M
//! constants: the mechanism behind the paper's E4 finding, and the reason
//! Tjeng, Xiao & Tedrake (ICLR 2019) tighten every ReLU's bounds for the
//! input region before solving.
//!
//! # One build per region
//!
//! [`encode_verification`] propagates the region through the layers and
//! builds. An [`EncodingTemplate`] is built once per (tail, characterizer,
//! risk, root region) triple and keeps the layers, the root's box and a
//! content fingerprint. [`EncodingTemplate::instantiate`] builds the problem
//! of a sub-region of the root from that sub-region's bounds, propagated
//! alone ([`EncodingTemplate::region_bounds`]) or for a whole generation of
//! sibling boxes in one batched sweep
//! ([`EncodingTemplate::region_bounds_batch`]). Batched lanes equal scalar
//! propagation bit for bit, so every path gives the identical MILP for the
//! same region. Two sub-regions of one template do not share rows, so an LP
//! basis of one is no start for the other.

use std::cell::Cell;
use std::ops::Range;

use dpv_absint::{AbstractDomain, BoxBatch, BoxDomain, Interval, OctagonLite};
use dpv_lp::{ConstraintOp, MilpProblem, VarId};
use dpv_nn::{Activation, BatchNorm1d, Dense, Layer, Network};

use crate::fingerprint::Fingerprint;
use crate::{CoreError, OutputOp, RiskCondition};

/// The set `S` of layer-`l` activations from which the verification starts.
#[derive(Debug, Clone, PartialEq)]
pub enum StartRegion {
    /// Independent per-neuron bounds (Lemma 1 with large bounds, Lemma 2
    /// via abstract interpretation, or the box part of an envelope).
    Box(BoxDomain),
    /// Box plus adjacent-neuron difference constraints — the refined
    /// envelope of the paper's Section V.
    Octagon(OctagonLite),
}

impl StartRegion {
    /// The box enclosure of the region (used for big-M bound computation).
    pub fn box_domain(&self) -> BoxDomain {
        match self {
            StartRegion::Box(b) => b.clone(),
            StartRegion::Octagon(o) => o.to_box_domain(),
        }
    }

    /// Dimension of the region.
    pub fn dim(&self) -> usize {
        match self {
            StartRegion::Box(b) => b.dim(),
            StartRegion::Octagon(o) => o.dim(),
        }
    }

    /// Returns `true` when the concrete activation lies inside the region.
    pub fn contains(&self, activation: &[f64], tol: f64) -> bool {
        match self {
            StartRegion::Box(b) => b.box_contains(activation, tol),
            StartRegion::Octagon(o) => o.contains(activation, tol),
        }
    }

    /// The per-neuron bounds of the region's box enclosure.
    fn box_bounds(&self) -> &[Interval] {
        match self {
            StartRegion::Box(b) => b.bounds(),
            StartRegion::Octagon(o) => o.bounds(),
        }
    }
}

/// `Ok` when every interval is finite and not inverted.
fn check_intervals(what: &str, intervals: &[Interval]) -> Result<(), CoreError> {
    match intervals
        .iter()
        .position(|iv| !(iv.lo.is_finite() && iv.hi.is_finite() && iv.lo <= iv.hi))
    {
        None => Ok(()),
        Some(i) => Err(CoreError::Inconsistent(format!(
            "{what} bound {i} is [{}, {}]: bounds must be finite with lo <= hi",
            intervals[i].lo, intervals[i].hi
        ))),
    }
}

/// `Ok` when interval propagation gave stage `index` of a chain finite
/// bounds. Finite inputs can still overflow (a 1e300 weight over a wide
/// region gives `[−∞, ∞]`), and the LP layer only takes boxed variables.
fn check_propagated(index: usize, bounds: &[Interval]) -> Result<(), CoreError> {
    if bounds
        .iter()
        .all(|iv| iv.lo.is_finite() && iv.hi.is_finite())
    {
        Ok(())
    } else {
        Err(CoreError::Inconsistent(format!(
            "interval bounds of layer {index} overflow; the encoding needs finite bounds"
        )))
    }
}

/// `Ok` when every layer's parameters are finite.
fn check_layers(what: &str, layers: &[Layer]) -> Result<(), CoreError> {
    match layers.iter().position(|layer| !layer.is_finite()) {
        None => Ok(()),
        Some(i) => Err(CoreError::Inconsistent(format!(
            "{what} layer {i} has a non-finite parameter"
        ))),
    }
}

/// Rejects the inputs the MILP encoder cannot take, before any of them is
/// encoded: a NaN or infinite parameter in the `tail` (the layers after the
/// cut) or in the `characterizer`, a non-finite coefficient or threshold in
/// a risk inequality, and a non-finite or inverted (`lo > hi`) bound in a
/// start region, an octagon's difference bounds included. The LP layer keeps
/// every variable boxed, so only finite inputs may reach it.
/// [`crate::VerificationProblem`] runs this before every encoding, and the
/// obligation server runs it on each request before admission.
///
/// # Errors
/// [`CoreError::Inconsistent`] naming the first offending field.
pub fn check_finite<'a>(
    tail: &[Layer],
    characterizer: &Network,
    risks: impl IntoIterator<Item = &'a RiskCondition>,
    regions: impl IntoIterator<Item = &'a StartRegion>,
) -> Result<(), CoreError> {
    check_layers("tail", tail)?;
    check_layers("characterizer", characterizer.layers())?;
    for risk in risks {
        for ineq in risk.inequalities() {
            if !(ineq.rhs.is_finite() && ineq.coeffs.iter().all(|c| c.is_finite())) {
                return Err(CoreError::Inconsistent(format!(
                    "risk condition `{}` has a non-finite coefficient or threshold",
                    risk.name()
                )));
            }
        }
    }
    regions.into_iter().try_for_each(check_region)
}

/// `Ok` when `region`'s bounds, an octagon's difference bounds included,
/// are finite with `lo <= hi`.
fn check_region(region: &StartRegion) -> Result<(), CoreError> {
    match region {
        StartRegion::Box(b) => check_intervals("region", b.bounds()),
        StartRegion::Octagon(o) => {
            check_intervals("region", o.bounds())?;
            check_intervals("region difference", o.diffs())
        }
    }
}

/// The output width of `layers` over `input_dim` activations, or the error
/// for a layer the builder cannot encode or a width that does not fit.
fn check_chain(layers: &[Layer], input_dim: usize) -> Result<usize, CoreError> {
    let mut dim = input_dim;
    for layer in layers {
        match layer {
            Layer::Dense(d) => {
                if d.input_dim() != dim {
                    return Err(CoreError::Inconsistent(format!(
                        "dense layer expects {} inputs, encoding has {dim}",
                        d.input_dim()
                    )));
                }
                dim = d.output_dim();
            }
            Layer::BatchNorm(bn) => {
                if bn.dim() != dim {
                    return Err(CoreError::Inconsistent(
                        "batch-norm dimension mismatch in encoding".into(),
                    ));
                }
            }
            Layer::Activation(Activation::ReLU | Activation::Identity) | Layer::Flatten(_) => {}
            Layer::Activation(other) => {
                return Err(CoreError::NotPiecewiseLinear(format!(
                    "activation {other:?} cannot be encoded exactly; only ReLU/identity tails are supported"
                )));
            }
            Layer::Conv2d(_) | Layer::MaxPool2d(_) => {
                return Err(CoreError::NotPiecewiseLinear(
                    "convolution/pooling layers must stay in the (unverified) head; choose a cut layer after them"
                        .into(),
                ));
            }
        }
    }
    Ok(dim)
}

/// A fully encoded verification instance.
#[derive(Debug, Clone)]
pub struct EncodedProblem {
    /// The MILP: feasible iff an activation in the start region triggers the
    /// risk condition while the characterizer fires.
    pub milp: MilpProblem,
    /// Variables of the cut-layer activation.
    pub cut_vars: Vec<VarId>,
    /// Variables of the network output.
    pub output_vars: Vec<VarId>,
    /// Variable of the characterizer logit (when a characterizer was encoded).
    pub logit_var: Option<VarId>,
    /// Number of binary (ReLU-phase) variables: one per ReLU neuron whose
    /// phase the region's bounds leave open.
    pub num_binaries: usize,
    /// Number of ReLU neurons whose phase the region's bounds fix, so they
    /// get no binary and no row — the tighter the start region, the larger
    /// this is.
    pub stable_relus: usize,
}

/// What the builder encodes besides the region: the tail, the
/// characterizer's layers and the risk condition.
struct Encoder<'a> {
    tail: &'a [Layer],
    characterizer: Option<&'a [Layer]>,
    risk: &'a RiskCondition,
}

impl Encoder<'_> {
    /// The per-stage bounds of `region_box` through the tail and the
    /// characterizer, by scalar propagation.
    fn propagate(&self, region_box: &BoxDomain) -> (Vec<Vec<Interval>>, Vec<Vec<Interval>>) {
        (
            propagate_chain_scalar(self.tail, region_box),
            self.characterizer
                .map(|layers| propagate_chain_scalar(layers, region_box))
                .unwrap_or_default(),
        )
    }

    /// Builds the MILP of `region` from its per-stage bounds (see the
    /// module docs). The region must be finite and the bounds its own, laid
    /// out like [`RegionBounds`]; a stage whose bounds overflowed, and any
    /// coefficient or constant that overflows on the way (weights multiplied
    /// through stable-active ReLUs, say), is a [`CoreError::Inconsistent`].
    fn build(
        &self,
        region: &StartRegion,
        tail_bounds: &[Vec<Interval>],
        ch_bounds: &[Vec<Interval>],
    ) -> Result<EncodedProblem, CoreError> {
        let region_box = region.box_bounds();
        let diffs = match region {
            StartRegion::Octagon(o) => o.diffs(),
            StartRegion::Box(_) => &[],
        };
        let unstable = count_unstable(self.tail, tail_bounds)
            + self
                .characterizer
                .map_or(0, |layers| count_unstable(layers, ch_bounds));
        let outputs =
            last_stage(self.tail, tail_bounds).map_or(region_box.len(), |(_, bounds)| bounds.len());
        let has_ch = usize::from(self.characterizer.is_some());
        let vars = region_box.len() + 2 * unstable + outputs + has_ch;
        let rows =
            2 * diffs.len() + 3 * unstable + outputs + 2 * has_ch + self.risk.inequalities().len();
        let mut b = Builder::new(vars, rows);

        let cut_vars: Vec<VarId> = region_box
            .iter()
            .map(|iv| b.milp.add_variable(iv.lo, iv.hi))
            .collect();
        // Octagon refinement: lo_i <= x[i+1] - x[i] <= hi_i.
        for (i, diff) in diffs.iter().enumerate() {
            b.buf.row.clear();
            b.buf
                .row
                .extend([(cut_vars[i + 1], 1.0), (cut_vars[i], -1.0)]);
            b.add_row(ConstraintOp::Ge, diff.lo)?;
            b.add_row(ConstraintOp::Le, diff.hi)?;
        }

        let output_vars: Vec<VarId> = b
            .chain(&cut_vars, self.tail, tail_bounds, region_box)?
            .collect();
        // The characterizer must fire: h_φ = 1, i.e. logit >= 0.
        let logit_var = match self.characterizer {
            Some(layers) => {
                let logit = b.chain(&cut_vars, layers, ch_bounds, region_box)?.start;
                b.buf.row.clear();
                b.buf.row.push((logit, 1.0));
                b.add_row(ConstraintOp::Ge, 0.0)?;
                Some(logit)
            }
            None => None,
        };
        // Risk condition ψ over the output variables.
        for inequality in self.risk.inequalities() {
            b.buf.row.clear();
            b.buf.row.extend(
                inequality
                    .coeffs
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c != 0.0)
                    .map(|(i, c)| (output_vars[i], *c)),
            );
            let op = match inequality.op {
                OutputOp::Le => ConstraintOp::Le,
                OutputOp::Ge => ConstraintOp::Ge,
            };
            b.add_row(op, inequality.rhs)?;
        }

        let (milp, num_binaries, stable_relus) = b.finish();
        Ok(EncodedProblem {
            milp,
            cut_vars,
            output_vars,
            logit_var,
            num_binaries,
            stable_relus,
        })
    }
}

/// The number of ReLU neurons whose pre-activation bounds straddle zero.
fn count_unstable(layers: &[Layer], stages: &[Vec<Interval>]) -> usize {
    layers
        .iter()
        .zip(stages)
        .filter(|(layer, _)| matches!(layer, Layer::Activation(Activation::ReLU)))
        .map(|(_, pre)| pre.iter().filter(|iv| iv.lo < 0.0 && iv.hi > 0.0).count())
        .sum()
}

/// The last stage of a chain that changes the activations, with its
/// bounds: its outputs' bounds are those of a dense or batch-norm stage, or
/// the clamped pre-activation bounds of a ReLU stage. `None` when the chain
/// leaves the cut-layer activations as they are.
fn last_stage<'b>(
    layers: &'b [Layer],
    stages: &'b [Vec<Interval>],
) -> Option<(&'b Layer, &'b [Interval])> {
    layers
        .iter()
        .zip(stages)
        .rev()
        .find(|(_, bounds)| !bounds.is_empty())
        .map(|(layer, bounds)| (layer, bounds.as_slice()))
}

/// The neuron expressions `Σ c·x + k` of one stage over LP variables,
/// stored flat: neuron `j` has the terms `terms[starts[j]..starts[j + 1]]`
/// and the constant `consts[j]`.
#[derive(Default)]
struct Exprs {
    terms: Vec<(VarId, f64)>,
    starts: Vec<usize>,
    consts: Vec<f64>,
}

impl Exprs {
    /// Empties the stage.
    fn clear(&mut self) {
        self.terms.clear();
        self.starts.clear();
        self.starts.push(0);
        self.consts.clear();
    }

    /// Closes the neuron whose terms were pushed since the last one, with
    /// the constant `constant`.
    fn push(&mut self, constant: f64) {
        self.consts.push(constant);
        self.starts.push(self.terms.len());
    }

    /// The terms of neuron `j`.
    fn terms(&self, j: usize) -> &[(VarId, f64)] {
        &self.terms[self.starts[j]..self.starts[j + 1]]
    }
}

/// The work buffers of a build.
#[derive(Default)]
struct Buffers {
    /// The expressions of the current and the next stage.
    cur: Exprs,
    next: Exprs,
    /// Per LP variable, the coefficient accumulated so far; zero between
    /// neurons.
    acc: Vec<f64>,
    /// The variables `acc` holds a coefficient of, in first-touch order.
    touched: Vec<VarId>,
    row: Vec<(VarId, f64)>,
}

thread_local! {
    /// The buffers of the last build on this thread that finished, so a
    /// stream of builds allocates little more than the problems themselves.
    static BUFFERS: Cell<Buffers> = Cell::default();
}

/// The state of one build: the MILP so far and the work buffers.
struct Builder {
    milp: MilpProblem,
    buf: Buffers,
    binaries: usize,
    stable: usize,
}

impl Builder {
    /// An empty build of `vars` variables and `rows` rows, on the thread's
    /// buffers.
    fn new(vars: usize, rows: usize) -> Self {
        let mut milp = MilpProblem::new();
        milp.lp_mut().reserve(vars, rows);
        let mut buf = BUFFERS.take();
        buf.acc.clear();
        buf.acc.resize(vars, 0.0);
        Self {
            milp,
            buf,
            binaries: 0,
            stable: 0,
        }
    }

    /// The problem and its binary and stable ReLU counts; the buffers go
    /// back to the thread.
    fn finish(self) -> (MilpProblem, usize, usize) {
        BUFFERS.set(self.buf);
        (self.milp, self.binaries, self.stable)
    }

    /// Adds the row in the row buffer, unless a coefficient or `rhs` is not
    /// finite.
    fn add_row(&mut self, op: ConstraintOp, rhs: f64) -> Result<(), CoreError> {
        if !(rhs.is_finite() && self.buf.row.iter().all(|(_, c)| c.is_finite())) {
            return Err(CoreError::Inconsistent(
                "a coefficient or constant of the encoding overflows; the network's weights \
                 are too large for f64 over this region"
                    .into(),
            ));
        }
        self.milp.lp_mut().add_constraint(&self.buf.row, op, rhs);
        Ok(())
    }

    /// Sets the row buffer to `v − p`, with `p` the terms of current
    /// neuron `j`.
    fn row_minus(&mut self, v: VarId, j: usize) {
        let Buffers { cur, row, .. } = &mut self.buf;
        row.clear();
        row.push((v, 1.0));
        row.extend(cur.terms(j).iter().map(|&(x, c)| (x, -c)));
    }

    /// Encodes `layers` over the cut variables and returns one variable per
    /// output, boxed by the last stage's bounds (`region_box` when no stage
    /// changes the activations) and pinned to its expression.
    fn chain(
        &mut self,
        cut_vars: &[VarId],
        layers: &[Layer],
        stages: &[Vec<Interval>],
        region_box: &[Interval],
    ) -> Result<Range<VarId>, CoreError> {
        self.buf.cur.clear();
        for &v in cut_vars {
            self.buf.cur.terms.push((v, 1.0));
            self.buf.cur.push(0.0);
        }
        for (index, (layer, bounds)) in layers.iter().zip(stages).enumerate() {
            check_propagated(index, bounds)?;
            match layer {
                Layer::Dense(d) => self.dense(d),
                Layer::BatchNorm(bn) => self.batch_norm(bn),
                Layer::Activation(Activation::ReLU) => self.relu(bounds)?,
                // Identity and flatten; the structure check rejected the rest.
                _ => continue,
            }
            std::mem::swap(&mut self.buf.cur, &mut self.buf.next);
        }
        let last = last_stage(layers, stages);
        let first = self.milp.lp().num_variables();
        for j in 0..self.buf.cur.consts.len() {
            let iv = match last {
                None => region_box[j],
                Some((Layer::Activation(Activation::ReLU), pre)) => Interval {
                    lo: pre[j].lo.max(0.0),
                    hi: pre[j].hi.max(0.0),
                },
                Some((_, post)) => post[j],
            };
            let v = self.milp.add_variable(iv.lo, iv.hi);
            // v - p = c
            self.row_minus(v, j);
            self.add_row(ConstraintOp::Eq, self.buf.cur.consts[j])?;
        }
        Ok(first..self.milp.lp().num_variables())
    }

    /// `next = W·cur + b`, each neuron's terms merged per variable.
    fn dense(&mut self, d: &Dense) {
        let Buffers {
            cur,
            next,
            acc,
            touched,
            ..
        } = &mut self.buf;
        next.clear();
        for (j, &bias) in d.bias().iter().enumerate() {
            let mut constant = 0.0;
            for (i, &w) in d.weights().row(j).iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                for &(v, c) in cur.terms(i) {
                    if acc[v] == 0.0 {
                        touched.push(v);
                    }
                    acc[v] += w * c;
                }
                constant += w * cur.consts[i];
            }
            // A variable touched twice reads zero the second time.
            for &v in touched.iter() {
                let c = std::mem::take(&mut acc[v]);
                if c != 0.0 {
                    next.terms.push((v, c));
                }
            }
            touched.clear();
            next.push(constant + bias);
        }
    }

    /// `next = a ⊙ cur + b`, the batch norm's affine form.
    fn batch_norm(&mut self, bn: &BatchNorm1d) {
        let (a, b) = bn.affine_form();
        self.buf.next.clear();
        for j in 0..a.len() {
            for &(v, c) in self.buf.cur.terms(j) {
                let scaled = a[j] * c;
                if scaled != 0.0 {
                    self.buf.next.terms.push((v, scaled));
                }
            }
            self.buf.next.push(a[j] * self.buf.cur.consts[j] + b[j]);
        }
    }

    /// `next = max(0, cur)` with pre-activation bounds `pre`.
    fn relu(&mut self, pre: &[Interval]) -> Result<(), CoreError> {
        self.buf.next.clear();
        for (j, &Interval { lo: l, hi: u }) in pre.iter().enumerate() {
            if l >= 0.0 {
                // Stably active: y = x.
                self.buf.next.terms.extend_from_slice(self.buf.cur.terms(j));
                self.buf.next.push(self.buf.cur.consts[j]);
                self.stable += 1;
            } else if u <= 0.0 {
                // Stably inactive: y = 0.
                self.buf.next.push(0.0);
                self.stable += 1;
            } else {
                // x = p + c. The big-M rows of `dpv_lp::encode_relu_big_m`:
                // y >= x, y <= x - l·(1 - δ) and y <= u·δ; y >= 0 is the
                // lower bound of y.
                let y = self.milp.add_variable(0.0, u);
                let delta = self.milp.add_binary();
                let c = self.buf.cur.consts[j];
                // y - p >= c, the row the search reads x back from.
                self.row_minus(y, j);
                self.add_row(ConstraintOp::Ge, c)?;
                let row = self.milp.lp().num_constraints() - 1;
                self.milp.link_relu(delta, y, row);
                // y - p - l·δ <= c - l
                self.buf.row.push((delta, -l));
                self.add_row(ConstraintOp::Le, c - l)?;
                // y - u·δ <= 0
                self.buf.row.clear();
                self.buf.row.extend([(y, 1.0), (delta, -u)]);
                self.add_row(ConstraintOp::Le, 0.0)?;
                self.buf.next.terms.push((y, 1.0));
                self.buf.next.push(0.0);
                self.binaries += 1;
            }
        }
        Ok(())
    }
}

/// Builds the MILP whose feasibility answers the safety question:
///
/// > does there exist an activation `n̂_l` in `region` such that the tail
/// > maps it to an output satisfying `risk`, while the characterizer's logit
/// > is non-negative (`h_φ = 1`)?
///
/// `Infeasible` therefore proves safety relative to `region` (Lemma 1/2 or
/// the assume-guarantee argument, depending on how `region` was obtained).
/// The region is propagated through the layers by interval arithmetic, and
/// the builder of the module docs encodes it from those bounds.
///
/// # Errors
/// Returns [`CoreError::NotPiecewiseLinear`] when the tail or characterizer
/// contains layers the encoder cannot represent, and
/// [`CoreError::Inconsistent`] on dimension mismatches, on a region bound
/// that is not finite, when interval propagation overflows to an infinite
/// bound, and when a coefficient or constant of the encoding overflows.
pub fn encode_verification(
    tail: &[Layer],
    characterizer: Option<&Network>,
    risk: &RiskCondition,
    region: &StartRegion,
) -> Result<EncodedProblem, CoreError> {
    check_region(region)?;
    let dim = region.dim();
    let outputs = check_chain(tail, dim)?;
    if let Some(ch) = characterizer {
        if ch.input_dim() != dim {
            return Err(CoreError::Inconsistent(format!(
                "characterizer expects {} features, cut layer has {dim}",
                ch.input_dim()
            )));
        }
        if ch.output_dim() != 1 {
            return Err(CoreError::Inconsistent(
                "characterizer must produce a single logit".into(),
            ));
        }
        check_chain(ch.layers(), dim)?;
    }
    for inequality in risk.inequalities() {
        if inequality.coeffs.len() > outputs {
            return Err(CoreError::Inconsistent(format!(
                "risk condition references output {} but the network has only {outputs} outputs",
                inequality.coeffs.len() - 1
            )));
        }
    }
    let encoder = Encoder {
        tail,
        characterizer: characterizer.map(Network::layers),
        risk,
    };
    let (tail_bounds, ch_bounds) = encoder.propagate(&region.box_domain());
    encoder.build(region, &tail_bounds, &ch_bounds)
}

/// The reusable encoding state of one (tail network, risk condition,
/// characterizer) triple over a **root** start region: the layers, the
/// root's box and a content fingerprint. Each sub-region of the root, the
/// root itself included, gets a build of its own from its own bounds (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct EncodingTemplate {
    tail: Vec<Layer>,
    characterizer: Option<Vec<Layer>>,
    risk: RiskCondition,
    root_box: BoxDomain,
    /// The number of difference rows of an octagon root; `None` for a box.
    root_diffs: Option<usize>,
    /// Content-addressed identity stamped onto every [`RegionBounds`] this
    /// template computes, so bounds of another template's stage layout are
    /// refused. Also the key under which templates are shared in
    /// [`crate::cache::TemplateCache`].
    fingerprint: Fingerprint,
}

impl EncodingTemplate {
    /// Checks the triple and `root` by encoding the root problem with
    /// [`encode_verification`], then drops that problem: a template is
    /// rejected exactly when the root's one-shot encoding is, and keeps no
    /// MILP of its own (the root obligation is built like any other).
    ///
    /// # Errors
    /// Same conditions as [`encode_verification`].
    pub fn build(
        tail: &[Layer],
        characterizer: Option<&Network>,
        risk: &RiskCondition,
        root: &StartRegion,
    ) -> Result<Self, CoreError> {
        encode_verification(tail, characterizer, risk, root)?;
        Ok(Self {
            tail: tail.to_vec(),
            characterizer: characterizer.map(|ch| ch.layers().to_vec()),
            risk: risk.clone(),
            root_box: root.box_domain(),
            root_diffs: match root {
                StartRegion::Octagon(o) => Some(o.diffs().len()),
                StartRegion::Box(_) => None,
            },
            fingerprint: Fingerprint::of_template(tail, characterizer, risk, root),
        })
    }

    /// Content-addressed identity of this template: the canonical
    /// [`Fingerprint`] of its defining `(tail, characterizer, risk, root)`
    /// tuple. Two templates built from identical inputs share a fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    fn encoder(&self) -> Encoder<'_> {
        Encoder {
            tail: &self.tail,
            characterizer: self.characterizer.as_deref(),
            risk: &self.risk,
        }
    }

    /// Whether `region` can be instantiated from this template: the region
    /// kind must match the root's (a box template has no difference rows;
    /// an octagon template takes octagons with as many differences), the
    /// dimensions must agree, and the region's box must lie in the root
    /// box, since a template serves the sub-regions of its root. A region
    /// this refuses is encoded one-shot by [`encode_verification`], never
    /// through the template.
    pub fn supports(&self, region: &StartRegion) -> bool {
        match region {
            StartRegion::Box(b) => self.supports_box(b),
            StartRegion::Octagon(o) => {
                self.root_diffs == Some(o.diffs().len())
                    && o.dim() == self.root_box.dim()
                    && self.box_within_root(o.bounds())
            }
        }
    }

    /// [`EncodingTemplate::supports`] for a plain box region, without
    /// wrapping it in a [`StartRegion`] (the refinement work-list checks
    /// whole generations of sub-boxes).
    pub fn supports_box(&self, sub: &BoxDomain) -> bool {
        self.root_diffs.is_none()
            && sub.dim() == self.root_box.dim()
            && self.box_within_root(sub.bounds())
    }

    /// Containment of `sub` in the root box up to the support tolerance.
    fn box_within_root(&self, sub: &[Interval]) -> bool {
        let tol = 1e-9;
        sub.iter()
            .zip(self.root_box.bounds())
            .all(|(sub, root)| sub.lo >= root.lo - tol && sub.hi <= root.hi + tol)
    }

    /// Builds the problem of `region`: propagates it through the layers and
    /// encodes it from those bounds, exactly as [`encode_verification`]
    /// does.
    ///
    /// # Errors
    /// Returns [`CoreError::Inconsistent`] when
    /// [`EncodingTemplate::supports`] rejects the region, and the build's
    /// errors ([`encode_verification`]).
    pub fn instantiate(&self, region: &StartRegion) -> Result<EncodedProblem, CoreError> {
        let bounds = self.region_bounds(region)?;
        self.encoder()
            .build(region, &bounds.tail, &bounds.characterizer)
    }

    /// [`EncodingTemplate::instantiate`] into `scratch`, which is
    /// overwritten whatever it held (an instantiation of any template, say).
    /// No core or serve path calls it; it stays because perfbench's replay
    /// names it, and goes with the benchmark change of ROADMAP item 8.
    ///
    /// # Errors
    /// Same conditions as [`EncodingTemplate::instantiate`]; `scratch` is
    /// left as it was.
    pub fn instantiate_into(
        &self,
        region: &StartRegion,
        scratch: &mut EncodedProblem,
    ) -> Result<(), CoreError> {
        *scratch = self.instantiate(region)?;
        Ok(())
    }

    /// Interval-propagates the region through the tail and the
    /// characterizer and returns the per-stage bounds a build needs.
    /// [`EncodingTemplate::instantiate_with`] takes them, so a refinement
    /// generation can propagate all its sibling sub-boxes in one SoA pass
    /// ([`EncodingTemplate::region_bounds_batch`]).
    ///
    /// # Errors
    /// Returns [`CoreError::Inconsistent`] when
    /// [`EncodingTemplate::supports`] rejects the region.
    pub fn region_bounds(&self, region: &StartRegion) -> Result<RegionBounds, CoreError> {
        if !self.supports(region) {
            return Err(CoreError::Inconsistent(
                "region is not covered by the template's root region".into(),
            ));
        }
        let (tail, characterizer) = match region {
            StartRegion::Box(b) => self.encoder().propagate(b),
            StartRegion::Octagon(o) => self.encoder().propagate(&o.to_box_domain()),
        };
        Ok(RegionBounds {
            template_id: self.fingerprint,
            tail,
            characterizer,
        })
    }

    /// Batched [`EncodingTemplate::region_bounds`] for sibling sub-boxes of
    /// one refinement generation: all boxes are propagated through the
    /// tail and characterizer in a single structure-of-arrays sweep
    /// ([`BoxBatch`]), whose lanes are bit-identical to the scalar
    /// propagation — entry `i` of the result equals
    /// `region_bounds(&StartRegion::Box(boxes[i]))` exactly.
    ///
    /// # Errors
    /// Returns [`CoreError::Inconsistent`] when any box fails
    /// [`EncodingTemplate::supports_box`] (octagon-rooted templates reject
    /// plain boxes wholesale).
    pub fn region_bounds_batch(
        &self,
        boxes: &[&BoxDomain],
    ) -> Result<Vec<RegionBounds>, CoreError> {
        if boxes.iter().any(|b| !self.supports_box(b)) {
            return Err(CoreError::Inconsistent(
                "region is not covered by the template's root region".into(),
            ));
        }
        if boxes.is_empty() {
            return Ok(Vec::new());
        }
        let batch = BoxBatch::from_boxes(boxes);
        let tail = propagate_chain_batch(&self.tail, &batch);
        let characterizer = self
            .characterizer
            .as_ref()
            .map(|ch| propagate_chain_batch(ch, &batch));
        Ok((0..boxes.len())
            .map(|s| RegionBounds {
                template_id: self.fingerprint,
                tail: tail[s].clone(),
                characterizer: characterizer
                    .as_ref()
                    .map(|ch| ch[s].clone())
                    .unwrap_or_default(),
            })
            .collect())
    }

    /// [`EncodingTemplate::instantiate`] from precomputed `bounds`, which
    /// must be `region`'s own (typically one lane of
    /// [`EncodingTemplate::region_bounds_batch`]), instead of propagating
    /// the region. The resulting problem is identical to
    /// `instantiate(region)`.
    ///
    /// # Errors
    /// Returns [`CoreError::Inconsistent`] when the region is unsupported or
    /// `bounds` was computed by a different template, and the build's
    /// errors.
    pub fn instantiate_with(
        &self,
        region: &StartRegion,
        bounds: &RegionBounds,
    ) -> Result<EncodedProblem, CoreError> {
        if bounds.template_id != self.fingerprint {
            return Err(CoreError::Inconsistent(
                "region bounds derive from a different template".into(),
            ));
        }
        if !self.supports(region) {
            return Err(CoreError::Inconsistent(
                "region is not covered by the template's root region".into(),
            ));
        }
        self.encoder()
            .build(region, &bounds.tail, &bounds.characterizer)
    }

    /// [`EncodingTemplate::instantiate_with`] into `scratch`, which is
    /// overwritten whatever it held. Kept, like
    /// [`EncodingTemplate::instantiate_into`], for perfbench's replay.
    ///
    /// # Errors
    /// Same conditions as [`EncodingTemplate::instantiate_with`]; `scratch`
    /// is left as it was.
    pub fn instantiate_into_with(
        &self,
        region: &StartRegion,
        bounds: &RegionBounds,
        scratch: &mut EncodedProblem,
    ) -> Result<(), CoreError> {
        *scratch = self.instantiate_with(region, bounds)?;
        Ok(())
    }
}

/// Precomputed per-stage interval bounds of one region under one template —
/// the output of [`EncodingTemplate::region_bounds`] /
/// [`EncodingTemplate::region_bounds_batch`] and the input of
/// [`EncodingTemplate::instantiate_with`].
///
/// Per stage the stored bounds are what the build reads: post-affine bounds
/// for dense/batch-norm stages, **pre-activation** bounds for ReLU stages
/// (they decide the phase and give the big-M constants), and nothing for
/// identity/flatten stages. The struct is opaque and stamped with the
/// template's identity, so bounds laid out for another template's stages
/// are refused.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionBounds {
    template_id: Fingerprint,
    tail: Vec<Vec<Interval>>,
    characterizer: Vec<Vec<Interval>>,
}

/// Scalar propagation through one chain: walks the layers with the box
/// transformer and records, per stage, the bounds a build reads (see
/// [`RegionBounds`]).
fn propagate_chain_scalar(layers: &[Layer], region_box: &BoxDomain) -> Vec<Vec<Interval>> {
    let mut stages = Vec::with_capacity(layers.len());
    let mut cur = region_box.clone();
    let mut next = BoxDomain::from_intervals(Vec::new());
    for layer in layers {
        match layer {
            Layer::Dense(_) | Layer::BatchNorm(_) => {
                cur.apply_layer_into(layer, &mut next);
                std::mem::swap(&mut cur, &mut next);
                stages.push(cur.bounds().to_vec());
            }
            Layer::Activation(Activation::ReLU) => {
                // Record the PRE-activation bounds, then keep propagating.
                stages.push(cur.bounds().to_vec());
                cur.apply_layer_into(layer, &mut next);
                std::mem::swap(&mut cur, &mut next);
            }
            _ => stages.push(Vec::new()),
        }
    }
    stages
}

/// Batched propagation: one [`BoxBatch`] sweep through the chain, returning
/// the per-stage bounds for every lane (`result[lane][stage]`). Lane `s` is
/// bit-identical to `propagate_chain_scalar` of box `s` — the parity the
/// `BoxBatch` kernels guarantee.
fn propagate_chain_batch(layers: &[Layer], start: &BoxBatch) -> Vec<Vec<Vec<Interval>>> {
    let lanes = start.lanes();
    let mut per_lane: Vec<Vec<Vec<Interval>>> = (0..lanes)
        .map(|_| Vec::with_capacity(layers.len()))
        .collect();
    let record = |batch: &BoxBatch, per_lane: &mut Vec<Vec<Vec<Interval>>>| {
        for (s, lane) in per_lane.iter_mut().enumerate() {
            lane.push((0..batch.dim()).map(|d| batch.interval(s, d)).collect());
        }
    };
    let mut cur = start.clone();
    let mut next = BoxBatch::empty();
    for layer in layers {
        match layer {
            Layer::Dense(_) | Layer::BatchNorm(_) => {
                cur.apply_layer_into(layer, &mut next);
                std::mem::swap(&mut cur, &mut next);
                record(&cur, &mut per_lane);
            }
            Layer::Activation(Activation::ReLU) => {
                record(&cur, &mut per_lane);
                cur.apply_layer_into(layer, &mut next);
                std::mem::swap(&mut cur, &mut next);
            }
            _ => {
                for lane in per_lane.iter_mut() {
                    lane.push(Vec::new());
                }
            }
        }
    }
    per_lane
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_lp::MilpStatus;
    use dpv_nn::{Activation, Dense, NetworkBuilder};
    use dpv_tensor::{Matrix, Vector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Asserts that two encodings are the same problem, field by field.
    fn assert_same_problem(a: &EncodedProblem, b: &EncodedProblem) {
        assert_eq!(a.milp, b.milp);
        assert_eq!(a.cut_vars, b.cut_vars);
        assert_eq!(a.output_vars, b.output_vars);
        assert_eq!(a.logit_var, b.logit_var);
        assert_eq!(a.num_binaries, b.num_binaries);
        assert_eq!(a.stable_relus, b.stable_relus);
    }

    /// Tail: identity dense 2→2 with ReLU, so output = relu(x).
    fn identity_relu_tail() -> Vec<Layer> {
        vec![
            Layer::Dense(Dense::from_parts(Matrix::identity(2), Vector::zeros(2))),
            Layer::Activation(Activation::ReLU),
        ]
    }

    #[test]
    fn encoding_matches_concrete_execution() {
        let mut rng = StdRng::seed_from_u64(0);
        let tail_net = NetworkBuilder::new(3)
            .dense(4, &mut rng)
            .activation(Activation::ReLU)
            .dense(2, &mut rng)
            .build();
        let region = StartRegion::Box(BoxDomain::uniform(3, -1.0, 1.0));
        // For several fixed cut activations, the MILP restricted to that point
        // must reproduce the concrete output (checked through feasibility of
        // the risk "output0 >= concrete - eps AND output0 <= concrete + eps").
        for _ in 0..5 {
            let x = Vector::from_vec((0..3).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let y = tail_net.forward(&x);
            let risk = RiskCondition::new("pin output")
                .output_ge(0, y[0] - 1e-6)
                .output_le(0, y[0] + 1e-6);
            let encoded = encode_verification(tail_net.layers(), None, &risk, &region).unwrap();
            let mut milp = encoded.milp.clone();
            for (i, &v) in encoded.cut_vars.iter().enumerate() {
                milp.lp_mut().tighten_bounds(v, x[i], x[i]);
            }
            let solution = milp.solve();
            assert_eq!(
                solution.status,
                MilpStatus::Optimal,
                "expected feasibility at {x}"
            );
        }
    }

    #[test]
    fn infeasible_when_risk_is_outside_reachable_outputs() {
        // Tail is relu(identity): outputs lie in [0, 1] for inputs in [-1, 1].
        let region = StartRegion::Box(BoxDomain::uniform(2, -1.0, 1.0));
        let risk = RiskCondition::new("impossible").output_ge(0, 5.0);
        let encoded = encode_verification(&identity_relu_tail(), None, &risk, &region).unwrap();
        assert_eq!(encoded.milp.solve().status, MilpStatus::Infeasible);
    }

    #[test]
    fn feasible_when_risk_is_reachable() {
        let region = StartRegion::Box(BoxDomain::uniform(2, -1.0, 1.0));
        let risk = RiskCondition::new("reachable").output_ge(0, 0.5);
        let encoded = encode_verification(&identity_relu_tail(), None, &risk, &region).unwrap();
        let solution = encoded.milp.solve();
        assert_eq!(solution.status, MilpStatus::Optimal);
        // The witness respects the region and triggers the risk concretely.
        let cut: Vec<f64> = encoded
            .cut_vars
            .iter()
            .map(|&v| solution.values[v])
            .collect();
        assert!(region.contains(&cut, 1e-6));
        assert!(solution.values[encoded.output_vars[0]] >= 0.5 - 1e-6);
    }

    #[test]
    fn octagon_constraints_can_prove_what_the_box_cannot() {
        // Tail computes y = x1 - x0 (then ReLU). Box region allows y up to 2,
        // but the octagon says x1 - x0 <= 0.1, so y >= 1 is impossible.
        let w = Matrix::from_rows(&[vec![-1.0, 1.0]]).unwrap();
        let tail = vec![
            Layer::Dense(Dense::from_parts(w, Vector::zeros(1))),
            Layer::Activation(Activation::ReLU),
        ];
        let risk = RiskCondition::new("large difference").output_ge(0, 1.0);

        let box_region = StartRegion::Box(BoxDomain::uniform(2, -1.0, 1.0));
        let feasible = encode_verification(&tail, None, &risk, &box_region).unwrap();
        assert_eq!(feasible.milp.solve().status, MilpStatus::Optimal);

        let oct = OctagonLite::from_parts(
            vec![Interval::new(-1.0, 1.0), Interval::new(-1.0, 1.0)],
            vec![Interval::new(-0.1, 0.1)],
        );
        let oct_region = StartRegion::Octagon(oct);
        let infeasible = encode_verification(&tail, None, &risk, &oct_region).unwrap();
        assert_eq!(infeasible.milp.solve().status, MilpStatus::Infeasible);
    }

    #[test]
    fn characterizer_constraint_restricts_the_search() {
        // Characterizer: logit = -x0 (fires only when x0 <= 0).
        // Tail: y = x0 (identity dense). Risk: y >= 0.5.
        // Without the characterizer the risk is reachable; with it, it is not.
        let tail = vec![Layer::Dense(Dense::from_parts(
            Matrix::identity(1),
            Vector::zeros(1),
        ))];
        let ch = dpv_nn::Network::new(
            1,
            vec![Layer::Dense(Dense::from_parts(
                Matrix::from_rows(&[vec![-1.0]]).unwrap(),
                Vector::zeros(1),
            ))],
        )
        .unwrap();
        let region = StartRegion::Box(BoxDomain::uniform(1, -1.0, 1.0));
        let risk = RiskCondition::new("large").output_ge(0, 0.5);

        let without = encode_verification(&tail, None, &risk, &region).unwrap();
        assert_eq!(without.milp.solve().status, MilpStatus::Optimal);

        let with = encode_verification(&tail, Some(&ch), &risk, &region).unwrap();
        assert_eq!(with.milp.solve().status, MilpStatus::Infeasible);
        assert!(with.logit_var.is_some());
    }

    #[test]
    fn tighter_regions_fix_more_relu_phases() {
        let mut rng = StdRng::seed_from_u64(5);
        let tail_net = NetworkBuilder::new(4)
            .dense(8, &mut rng)
            .activation(Activation::ReLU)
            .dense(2, &mut rng)
            .build();
        let risk = RiskCondition::new("anything").output_ge(0, 100.0);
        let loose = StartRegion::Box(BoxDomain::uniform(4, -10.0, 10.0));
        let tight = StartRegion::Box(BoxDomain::uniform(4, 0.4, 0.6));
        let loose_enc = encode_verification(tail_net.layers(), None, &risk, &loose).unwrap();
        let tight_enc = encode_verification(tail_net.layers(), None, &risk, &tight).unwrap();
        assert!(tight_enc.num_binaries <= loose_enc.num_binaries);
        assert!(tight_enc.stable_relus >= loose_enc.stable_relus);
    }

    #[test]
    fn rejects_non_piecewise_linear_tails() {
        let tail = vec![Layer::Activation(Activation::Sigmoid)];
        let region = StartRegion::Box(BoxDomain::uniform(2, 0.0, 1.0));
        let risk = RiskCondition::new("r").output_ge(0, 0.5);
        assert!(matches!(
            encode_verification(&tail, None, &risk, &region),
            Err(CoreError::NotPiecewiseLinear(_))
        ));
    }

    #[test]
    fn rejects_non_finite_regions() {
        // Every LP variable is boxed, so an unbounded region is an error
        // here instead of a panic in `add_variable`.
        let region = StartRegion::Box(BoxDomain::uniform(2, 0.0, f64::INFINITY));
        let risk = RiskCondition::new("r").output_ge(0, 0.5);
        assert!(matches!(
            encode_verification(&identity_relu_tail(), None, &risk, &region),
            Err(CoreError::Inconsistent(_))
        ));
    }

    #[test]
    fn overflowing_substituted_coefficients_are_errors() {
        // Weights 1e200 and 1e200 through a stable-active ReLU over a box
        // 1e-300 wide: the interval bounds stay finite ([1, 1] before the
        // ReLU, [1e200, 1e200] after the second layer), but substituting
        // the first layer into the second gives x the coefficient 1e400.
        let layer = |bias: f64| {
            Layer::Dense(Dense::from_parts(
                Matrix::from_rows(&[vec![1e200]]).unwrap(),
                Vector::from_vec(vec![bias]),
            ))
        };
        let tail = vec![layer(1.0), Layer::Activation(Activation::ReLU), layer(0.0)];
        let region = StartRegion::Box(BoxDomain::from_intervals(vec![Interval::new(0.0, 1e-300)]));
        let risk = RiskCondition::new("r").output_ge(0, 0.0);
        assert!(matches!(
            encode_verification(&tail, None, &risk, &region),
            Err(CoreError::Inconsistent(_))
        ));
        assert!(matches!(
            EncodingTemplate::build(&tail, None, &risk, &region),
            Err(CoreError::Inconsistent(_))
        ));
    }

    #[test]
    fn rejects_dimension_mismatches() {
        let tail = identity_relu_tail();
        let region = StartRegion::Box(BoxDomain::uniform(3, 0.0, 1.0));
        let risk = RiskCondition::new("r").output_ge(0, 0.5);
        assert!(matches!(
            encode_verification(&tail, None, &risk, &region),
            Err(CoreError::Inconsistent(_))
        ));
        // Risk referencing a non-existent output.
        let region2 = StartRegion::Box(BoxDomain::uniform(2, 0.0, 1.0));
        let bad_risk = RiskCondition::new("r").output_ge(5, 0.5);
        assert!(matches!(
            encode_verification(&identity_relu_tail(), None, &bad_risk, &region2),
            Err(CoreError::Inconsistent(_))
        ));
    }

    #[test]
    fn template_instantiation_matches_fresh_encoding_verdicts() {
        let mut rng = StdRng::seed_from_u64(7);
        let tail_net = NetworkBuilder::new(3)
            .dense(6, &mut rng)
            .activation(Activation::ReLU)
            .dense(1, &mut rng)
            .build();
        let root = StartRegion::Box(BoxDomain::uniform(3, -1.0, 1.0));
        for threshold in [0.2, 1.0, 5.0, 50.0] {
            let risk = RiskCondition::new("large").output_ge(0, threshold);
            let template = EncodingTemplate::build(tail_net.layers(), None, &risk, &root).unwrap();
            for (lo, hi) in [(-1.0, 1.0), (-0.5, 0.25), (0.1, 0.9), (-1.0, -0.6)] {
                let sub = StartRegion::Box(BoxDomain::uniform(3, lo, hi));
                assert!(template.supports(&sub));
                let instantiated = template.instantiate(&sub).unwrap();
                let fresh = encode_verification(tail_net.layers(), None, &risk, &sub).unwrap();
                assert_eq!(
                    instantiated.milp.solve().status,
                    fresh.milp.solve().status,
                    "verdict mismatch at threshold {threshold}, sub-box [{lo}, {hi}]"
                );
                // The phase classification matches the fresh encoding's.
                assert_eq!(instantiated.num_binaries, fresh.num_binaries);
                assert_eq!(
                    instantiated.num_binaries + instantiated.stable_relus,
                    fresh.num_binaries + fresh.stable_relus
                );
            }
        }
    }

    #[test]
    fn instantiate_into_reuses_scratch_exactly() {
        let mut rng = StdRng::seed_from_u64(9);
        let tail_net = NetworkBuilder::new(2)
            .dense(4, &mut rng)
            .activation(Activation::ReLU)
            .dense(1, &mut rng)
            .build();
        let root = StartRegion::Box(BoxDomain::uniform(2, -2.0, 2.0));
        let risk = RiskCondition::new("r").output_ge(0, 0.1);
        let template = EncodingTemplate::build(tail_net.layers(), None, &risk, &root).unwrap();

        let a = StartRegion::Box(BoxDomain::uniform(2, -2.0, 0.0));
        let b = StartRegion::Box(BoxDomain::uniform(2, 0.0, 1.5));
        // Instantiating b into a scratch previously holding a must yield a
        // problem identical to a fresh instantiation of b.
        let mut scratch = template.instantiate(&a).unwrap();
        template.instantiate_into(&b, &mut scratch).unwrap();
        let fresh_b = template.instantiate(&b).unwrap();
        assert_eq!(scratch.milp, fresh_b.milp);
        assert_eq!(scratch.num_binaries, fresh_b.num_binaries);
        assert_eq!(scratch.stable_relus, fresh_b.stable_relus);
    }

    #[test]
    fn instantiate_into_overwrites_scratches_from_other_templates() {
        // Two templates over the same tail and root, differing only in the
        // risk threshold: identical variable/constraint *counts*, different
        // row data. Instantiating into the other template's scratch must
        // answer this template's question, exactly as a fresh instantiation.
        let tail = identity_relu_tail();
        let root = StartRegion::Box(BoxDomain::uniform(2, -1.0, 1.0));
        let risk_a = RiskCondition::new("a").output_ge(0, 0.25);
        let risk_b = RiskCondition::new("b").output_ge(0, 5.0);
        let template_a = EncodingTemplate::build(&tail, None, &risk_a, &root).unwrap();
        let template_b = EncodingTemplate::build(&tail, None, &risk_b, &root).unwrap();
        let sub = StartRegion::Box(BoxDomain::uniform(2, -0.5, 0.5));
        let mut scratch = template_a.instantiate(&sub).unwrap();
        template_b.instantiate_into(&sub, &mut scratch).unwrap();
        assert_same_problem(&scratch, &template_b.instantiate(&sub).unwrap());
        assert_eq!(scratch.milp.solve().status, MilpStatus::Infeasible);
        let bounds = template_a.region_bounds(&sub).unwrap();
        template_a
            .instantiate_into_with(&sub, &bounds, &mut scratch)
            .unwrap();
        assert_same_problem(&scratch, &template_a.instantiate(&sub).unwrap());
        assert_eq!(scratch.milp.solve().status, MilpStatus::Optimal);
    }

    #[test]
    fn template_rejects_uncovered_and_mismatched_regions() {
        let tail = identity_relu_tail();
        let root = StartRegion::Box(BoxDomain::uniform(2, -1.0, 1.0));
        let risk = RiskCondition::new("r").output_ge(0, 0.5);
        let template = EncodingTemplate::build(&tail, None, &risk, &root).unwrap();
        // Escaping the root box invalidates the frozen big-M constants.
        let outside = StartRegion::Box(BoxDomain::uniform(2, -3.0, 3.0));
        assert!(!template.supports(&outside));
        assert!(template.instantiate(&outside).is_err());
        // Octagon regions need an octagon-rooted template.
        let oct = StartRegion::Octagon(OctagonLite::from_parts(
            vec![Interval::new(-0.5, 0.5), Interval::new(-0.5, 0.5)],
            vec![Interval::new(-0.1, 0.1)],
        ));
        assert!(!template.supports(&oct));
        // Wrong dimension.
        let wrong_dim = StartRegion::Box(BoxDomain::uniform(3, -0.5, 0.5));
        assert!(!template.supports(&wrong_dim));
    }

    #[test]
    fn octagon_template_retightens_difference_rows() {
        // Same fixture as the octagon-vs-box test: y = x1 - x0 after ReLU.
        let w = Matrix::from_rows(&[vec![-1.0, 1.0]]).unwrap();
        let tail = vec![
            Layer::Dense(Dense::from_parts(w, Vector::zeros(1))),
            Layer::Activation(Activation::ReLU),
        ];
        let risk = RiskCondition::new("large difference").output_ge(0, 1.0);
        let loose = OctagonLite::from_parts(
            vec![Interval::new(-1.0, 1.0), Interval::new(-1.0, 1.0)],
            vec![Interval::new(-2.0, 2.0)],
        );
        let template =
            EncodingTemplate::build(&tail, None, &risk, &StartRegion::Octagon(loose.clone()))
                .unwrap();
        // Root differences are vacuous → feasible.
        let at_root = template.instantiate(&StartRegion::Octagon(loose)).unwrap();
        assert_eq!(at_root.milp.solve().status, MilpStatus::Optimal);
        // Tightened differences make the risk unreachable; the difference
        // row is built from the sub-region's own interval.
        let tight = OctagonLite::from_parts(
            vec![Interval::new(-1.0, 1.0), Interval::new(-1.0, 1.0)],
            vec![Interval::new(-0.1, 0.1)],
        );
        let tightened = template.instantiate(&StartRegion::Octagon(tight)).unwrap();
        assert_eq!(tightened.milp.solve().status, MilpStatus::Infeasible);
    }

    #[test]
    fn batched_region_bounds_match_scalar_propagation_exactly() {
        let mut rng = StdRng::seed_from_u64(21);
        let tail_net = NetworkBuilder::new(3)
            .dense(6, &mut rng)
            .activation(Activation::ReLU)
            .batch_norm()
            .dense(2, &mut rng)
            .build();
        let ch = NetworkBuilder::new(3)
            .dense(4, &mut rng)
            .activation(Activation::ReLU)
            .dense(1, &mut rng)
            .build();
        let risk = RiskCondition::new("r").output_ge(0, 0.3);
        let root = StartRegion::Box(BoxDomain::uniform(3, -1.0, 1.0));
        let template = EncodingTemplate::build(tail_net.layers(), Some(&ch), &risk, &root).unwrap();
        let boxes: Vec<BoxDomain> = [(-1.0, 1.0), (-0.5, 0.25), (0.1, 0.9), (-1.0, -0.6)]
            .iter()
            .map(|&(lo, hi)| BoxDomain::uniform(3, lo, hi))
            .collect();
        let refs: Vec<&BoxDomain> = boxes.iter().collect();
        let batched = template.region_bounds_batch(&refs).unwrap();
        assert_eq!(batched.len(), boxes.len());
        for (b, batched_bounds) in boxes.iter().zip(&batched) {
            let scalar = template
                .region_bounds(&StartRegion::Box(b.clone()))
                .unwrap();
            // Bit-exact: the SoA lanes replicate scalar interval propagation.
            assert_eq!(batched_bounds, &scalar);
        }
        assert!(template.region_bounds_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn instantiate_with_precomputed_bounds_matches_instantiate() {
        let mut rng = StdRng::seed_from_u64(23);
        let tail_net = NetworkBuilder::new(2)
            .dense(5, &mut rng)
            .activation(Activation::ReLU)
            .dense(1, &mut rng)
            .build();
        let risk = RiskCondition::new("r").output_ge(0, 0.2);
        let root = StartRegion::Box(BoxDomain::uniform(2, -2.0, 2.0));
        let template = EncodingTemplate::build(tail_net.layers(), None, &risk, &root).unwrap();
        let sub = StartRegion::Box(BoxDomain::uniform(2, -0.5, 1.5));
        let bounds = template.region_bounds(&sub).unwrap();
        let via_bounds = template.instantiate_with(&sub, &bounds).unwrap();
        let direct = template.instantiate(&sub).unwrap();
        assert_eq!(via_bounds.milp, direct.milp);
        assert_eq!(via_bounds.num_binaries, direct.num_binaries);
        assert_eq!(via_bounds.stable_relus, direct.stable_relus);
        // Building into a scratch that held another region's problem
        // gives the same problem too.
        let other = StartRegion::Box(BoxDomain::uniform(2, 0.0, 2.0));
        let mut scratch = template.instantiate(&other).unwrap();
        template
            .instantiate_into_with(&sub, &bounds, &mut scratch)
            .unwrap();
        assert_eq!(scratch.milp, direct.milp);
    }

    #[test]
    fn region_bounds_are_template_scoped() {
        let tail = identity_relu_tail();
        let root = StartRegion::Box(BoxDomain::uniform(2, -1.0, 1.0));
        let risk_a = RiskCondition::new("a").output_ge(0, 0.25);
        let risk_b = RiskCondition::new("b").output_ge(0, 5.0);
        let template_a = EncodingTemplate::build(&tail, None, &risk_a, &root).unwrap();
        let template_b = EncodingTemplate::build(&tail, None, &risk_b, &root).unwrap();
        let sub = StartRegion::Box(BoxDomain::uniform(2, -0.5, 0.5));
        let bounds_a = template_a.region_bounds(&sub).unwrap();
        let mut scratch_b = template_b.instantiate(&sub).unwrap();
        assert!(matches!(
            template_b.instantiate_into_with(&sub, &bounds_a, &mut scratch_b),
            Err(CoreError::Inconsistent(_))
        ));
        // Uncovered regions are rejected at the propagate half already.
        let outside = StartRegion::Box(BoxDomain::uniform(2, -3.0, 3.0));
        assert!(template_a.region_bounds(&outside).is_err());
        let outside_box = BoxDomain::uniform(2, -3.0, 3.0);
        assert!(template_a.region_bounds_batch(&[&outside_box]).is_err());
    }

    #[test]
    fn the_encoder_links_every_binary_to_its_relus_output_and_row() {
        let mut rng = StdRng::seed_from_u64(3);
        let tail = NetworkBuilder::new(3)
            .dense(6, &mut rng)
            .activation(Activation::ReLU)
            .dense(4, &mut rng)
            .activation(Activation::ReLU)
            .dense(2, &mut rng)
            .build();
        let characterizer = NetworkBuilder::new(3)
            .dense(4, &mut rng)
            .activation(Activation::ReLU)
            .dense(1, &mut rng)
            .build();
        let region = StartRegion::Box(BoxDomain::uniform(3, -1.0, 1.0));
        let risk = RiskCondition::new("r").output_ge(0, -100.0);
        let encoded =
            encode_verification(tail.layers(), Some(&characterizer), &risk, &region).unwrap();
        let milp = &encoded.milp;
        let rows = milp.lp().constraints();
        let links = milp.relu_links();
        assert!(encoded.num_binaries >= 4, "{}", encoded.num_binaries);
        // Exactly one link per binary, in the order the binaries were added.
        let linked: Vec<VarId> = links.iter().map(|link| link.binary).collect();
        assert_eq!(linked, milp.binaries());
        for link in links {
            // The row `y − p ≥ c`: the output at coefficient 1, no binary.
            let row = &rows[link.row];
            assert_eq!(row.op, ConstraintOp::Ge);
            assert!(row.coeffs.contains(&(link.output, 1.0)), "{row:?}");
            assert!(row.coeffs.iter().all(|&(v, _)| v != link.binary), "{row:?}");
            // The output is the binary's own: `y − u·δ ≤ 0` names both.
            assert!(
                rows.iter().any(|r| r.op == ConstraintOp::Le
                    && r.rhs == 0.0
                    && r.coeffs.len() == 2
                    && r.coeffs[0] == (link.output, 1.0)
                    && r.coeffs[1].0 == link.binary),
                "no row y ≤ u·δ for {link:?}"
            );
        }
        // At an integral point the big-M rows are exact, so the output is
        // the ReLU of the pre-activation read back from the linked row.
        let solution = milp.solve();
        assert_eq!(solution.status, MilpStatus::Optimal);
        let values = &solution.values;
        for link in links {
            let row = &rows[link.row];
            let activity: f64 = row.coeffs.iter().map(|&(v, a)| a * values[v]).sum();
            let pre = values[link.output] - activity + row.rhs;
            assert!(
                (values[link.output] - pre.max(0.0)).abs() < 1e-6,
                "{link:?}"
            );
        }
    }

    #[test]
    fn template_instantiation_pins_stabilised_indicators() {
        let tail = identity_relu_tail();
        let root = StartRegion::Box(BoxDomain::uniform(2, -1.0, 1.0));
        let risk = RiskCondition::new("r").output_ge(0, 0.25);
        let template = EncodingTemplate::build(&tail, None, &risk, &root).unwrap();
        let root_encoded = template.instantiate(&root).unwrap();
        assert_eq!(root_encoded.num_binaries, 2);
        // A positive sub-box stabilises both ReLUs: its own build has no
        // indicator column left, so no free binary remains.
        let positive = StartRegion::Box(BoxDomain::uniform(2, 0.25, 0.75));
        let pinned = template.instantiate(&positive).unwrap();
        assert_eq!(pinned.num_binaries, 0);
        assert_eq!(pinned.stable_relus, 2);
        assert_eq!(pinned.milp.solve().status, MilpStatus::Optimal);
        // And a negative one pins them inactive → risk unreachable.
        let negative = StartRegion::Box(BoxDomain::uniform(2, -0.75, -0.25));
        let inactive = template.instantiate(&negative).unwrap();
        assert_eq!(inactive.num_binaries, 0);
        assert_eq!(inactive.milp.solve().status, MilpStatus::Infeasible);
    }
}
