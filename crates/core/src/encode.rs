//! Reduction of the tail-network verification problem to MILP, and the
//! incremental [`EncodingTemplate`] that amortises it across a refinement
//! sweep.
//!
//! # One-shot encoding vs. template instantiation
//!
//! [`encode_verification`] builds the whole MILP from scratch for one start
//! region. The refinement loop, however, solves the *same* (tail network,
//! risk condition, characterizer) triple over `2^k` sub-boxes of one root
//! region — re-running the full encoding per sub-box rebuilds hundreds of
//! identical equality and big-M rows every time.
//!
//! An [`EncodingTemplate`] is built **once** from the root region: it owns
//! the MILP *skeleton* (variables, dense/batch-norm equality rows, ReLU
//! big-M rows with root-region constants, risk and characterizer rows) plus
//! a per-layer plan of which variables belong to which stage.
//! [`EncodingTemplate::instantiate`] then produces the MILP for any
//! sub-region with **bound-shaped edits only**: it re-tightens the cut-layer
//! variable bounds, re-propagates the sub-box through the cached layers to
//! re-tighten every intermediate bound, pins ReLU phase indicators that the
//! tighter bounds stabilise (`δ ∈ [1,1]` / `[0,0]`), and rewrites the
//! octagon difference-row right-hand sides. Because none of these edits
//! touch constraint coefficients or the objective, consecutive
//! instantiations are also *warm-start compatible* at the LP layer
//! (`dpv_lp::BasisSnapshot` remains valid across them).
//!
//! The instantiated MILP is **verdict-equivalent** to a fresh encoding: the
//! big-M constants frozen at their root-region values are still valid for
//! every sub-region (interval propagation is monotone), so the feasible set
//! projected onto the cut-layer variables is identical — only the LP
//! relaxation may be weaker, which pinning the stabilised indicators mostly
//! recovers. The `backend_seam` tests assert verdict equality against the
//! re-encoding path.

use dpv_absint::{AbstractDomain, BoxBatch, BoxDomain, Interval, OctagonLite};
use dpv_lp::{encode_relu_big_m, ConstraintOp, MilpProblem, VarId};
use dpv_nn::{Activation, Layer, Network};

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

/// `Ok` when interval propagation gave layer `index` of a chain finite
/// output bounds. Finite inputs can still overflow (a 1e300 weight over a
/// wide region gives `[−∞, ∞]`), and the LP layer only takes boxed
/// variables.
fn check_propagated(index: usize, bounds: &BoxDomain) -> Result<(), CoreError> {
    if bounds
        .bounds()
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
    /// Number of binary (ReLU-phase) variables in the encoding that are
    /// actually free (neither structurally absent nor pinned by the bounds).
    pub num_binaries: usize,
    /// Number of ReLU neurons whose phase was fixed by the bounds (no binary
    /// variable needed, or the template pinned the indicator) — the tighter
    /// the start region, the larger this is.
    pub stable_relus: usize,
    /// Identity of the [`EncodingTemplate`] this problem was instantiated
    /// from (`None` for one-shot encodings). [`EncodingTemplate::instantiate_into`]
    /// refuses a scratch carrying a different template's fingerprint: two
    /// templates can share variable/constraint *counts* while differing in
    /// frozen coefficients (e.g. only a risk-row threshold apart), and
    /// re-tightening the wrong skeleton would silently answer the wrong
    /// question. The fingerprint is content-addressed
    /// ([`crate::fingerprint::Fingerprint`]), so scratches *are* portable
    /// between two templates built from identical inputs.
    pub(crate) template_id: Option<Fingerprint>,
}

/// One encoded layer of a template chain: the variables holding the layer's
/// outputs and, for ReLU stages, the phase indicator of each neuron (`None`
/// when the root bounds already fixed the phase, so no binary exists).
#[derive(Debug, Clone)]
struct Stage {
    vars: Vec<VarId>,
    indicators: Option<Vec<Option<VarId>>>,
}

/// Per-chain template plan: the cached layers plus their encoded stages.
#[derive(Debug, Clone)]
struct ChainPlan {
    layers: Vec<Layer>,
    stages: Vec<Stage>,
}

/// Estimated variable/constraint counts of a chain's encoding, used to
/// pre-size the [`MilpProblem`] storage before any row is built.
fn chain_size_estimate(input_dim: usize, layers: &[Layer]) -> (usize, usize) {
    let mut dim = input_dim;
    let mut vars = 0usize;
    let mut rows = 0usize;
    for layer in layers {
        match layer {
            Layer::Dense(d) => {
                dim = d.output_dim();
                vars += dim;
                rows += dim;
            }
            Layer::BatchNorm(bn) => {
                dim = bn.dim();
                vars += dim;
                rows += dim;
            }
            Layer::Activation(Activation::ReLU) => {
                // Worst case: every neuron unstable (1 output + 1 indicator
                // variable, 3 big-M rows).
                vars += 2 * dim;
                rows += 3 * dim;
            }
            _ => {}
        }
    }
    (vars, rows)
}

/// Encodes one ReLU-MLP (a slice of layers) into `milp`, starting from the
/// variables `inputs` whose concrete values range over `input_box`.
/// Returns the output variables and the output box. When `stages` is given,
/// records the per-layer variable plan for an [`EncodingTemplate`].
///
/// Interval propagation ping-pongs between two reused bound buffers instead
/// of allocating a fresh `BoxDomain` per layer. Every propagated bound is
/// checked before it becomes a variable bound: an overflow to an infinite
/// bound is a [`CoreError::Inconsistent`]. A ReLU stage takes its bounds from
/// the checked stage before it, or from `input_box`.
fn encode_layers(
    milp: &mut MilpProblem,
    inputs: &[VarId],
    input_box: &BoxDomain,
    layers: &[Layer],
    binaries: &mut usize,
    stable: &mut usize,
    mut stages: Option<&mut Vec<Stage>>,
) -> Result<(Vec<VarId>, BoxDomain), CoreError> {
    let mut vars = inputs.to_vec();
    let mut bounds = input_box.clone();
    let mut scratch = BoxDomain::from_intervals(Vec::new());
    for (index, layer) in layers.iter().enumerate() {
        let mut stage_indicators: Option<Vec<Option<VarId>>> = None;
        match layer {
            Layer::Dense(d) => {
                if d.input_dim() != vars.len() {
                    return Err(CoreError::Inconsistent(format!(
                        "dense layer expects {} inputs, encoding has {}",
                        d.input_dim(),
                        vars.len()
                    )));
                }
                bounds.apply_layer_into(layer, &mut scratch);
                check_propagated(index, &scratch)?;
                let mut out_vars = Vec::with_capacity(d.output_dim());
                for j in 0..d.output_dim() {
                    let interval = scratch.bounds()[j];
                    let v = milp.add_variable(interval.lo, interval.hi);
                    // y_j - Σ w_ji x_i = b_j
                    let mut coeffs = vec![(v, 1.0)];
                    for (i, &x) in vars.iter().enumerate() {
                        let w = d.weights()[(j, i)];
                        if w != 0.0 {
                            coeffs.push((x, -w));
                        }
                    }
                    milp.lp_mut()
                        .add_constraint(&coeffs, ConstraintOp::Eq, d.bias()[j]);
                    out_vars.push(v);
                }
                vars = out_vars;
                std::mem::swap(&mut bounds, &mut scratch);
            }
            Layer::BatchNorm(bn) => {
                if bn.dim() != vars.len() {
                    return Err(CoreError::Inconsistent(
                        "batch-norm dimension mismatch in encoding".into(),
                    ));
                }
                let (a, b) = bn.affine_form();
                bounds.apply_layer_into(layer, &mut scratch);
                check_propagated(index, &scratch)?;
                let mut out_vars = Vec::with_capacity(bn.dim());
                for j in 0..bn.dim() {
                    let interval = scratch.bounds()[j];
                    let v = milp.add_variable(interval.lo, interval.hi);
                    // y_j - a_j x_j = b_j
                    milp.lp_mut().add_constraint(
                        &[(v, 1.0), (vars[j], -a[j])],
                        ConstraintOp::Eq,
                        b[j],
                    );
                    out_vars.push(v);
                }
                vars = out_vars;
                std::mem::swap(&mut bounds, &mut scratch);
            }
            Layer::Activation(Activation::Identity) | Layer::Flatten(_) => {
                // Numerically the identity; keep the same variables.
            }
            Layer::Activation(Activation::ReLU) => {
                let mut out_vars = Vec::with_capacity(vars.len());
                let mut indicators = Vec::with_capacity(vars.len());
                for (j, &x) in vars.iter().enumerate() {
                    let pre = bounds.bounds()[j];
                    let y = milp.add_variable(0.0, pre.hi.max(0.0));
                    let encoding = encode_relu_big_m(milp, x, y, pre.lo, pre.hi);
                    if encoding.indicator.is_some() {
                        *binaries += 1;
                    } else {
                        *stable += 1;
                    }
                    indicators.push(encoding.indicator);
                    out_vars.push(y);
                }
                bounds.apply_layer_into(layer, &mut scratch);
                vars = out_vars;
                stage_indicators = Some(indicators);
                std::mem::swap(&mut bounds, &mut scratch);
            }
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
        if let Some(stages) = stages.as_deref_mut() {
            stages.push(Stage {
                vars: vars.clone(),
                indicators: stage_indicators,
            });
        }
    }
    Ok((vars, bounds))
}

/// Everything the template records while the skeleton is being encoded.
#[derive(Debug, Clone, Default)]
struct TemplatePlan {
    tail_stages: Vec<Stage>,
    ch_stages: Vec<Stage>,
    /// Per adjacent-neuron difference, the `(>= row, <= row)` constraint
    /// indices of the octagon refinement (empty for box templates).
    diff_rows: Vec<(usize, usize)>,
}

/// Shared construction of the verification MILP, optionally recording a
/// [`TemplatePlan`] for incremental re-instantiation.
fn encode_core(
    tail: &[Layer],
    characterizer: Option<&Network>,
    risk: &RiskCondition,
    region: &StartRegion,
    mut plan: Option<&mut TemplatePlan>,
) -> Result<EncodedProblem, CoreError> {
    check_region(region)?;
    let mut milp = MilpProblem::new();
    let box_domain = region.box_domain();
    let dim = region.dim();

    // Pre-size the model from the known layer shapes: one pass of arithmetic
    // instead of repeated mid-encoding re-allocation.
    {
        let (tail_vars, tail_rows) = chain_size_estimate(dim, tail);
        let (ch_vars, ch_rows) = characterizer
            .map(|ch| chain_size_estimate(dim, ch.layers()))
            .unwrap_or((0, 0));
        let diff_rows = match region {
            StartRegion::Octagon(o) => 2 * o.diffs().len(),
            StartRegion::Box(_) => 0,
        };
        let extra_rows = risk.inequalities().len() + usize::from(characterizer.is_some());
        milp.lp_mut().reserve(
            dim + tail_vars + ch_vars,
            tail_rows + ch_rows + diff_rows + extra_rows,
        );
    }

    // Cut-layer activation variables.
    let cut_vars: Vec<VarId> = box_domain
        .bounds()
        .iter()
        .map(|Interval { lo, hi }| milp.add_variable(*lo, *hi))
        .collect();

    // Octagon refinement: lo_i <= x[i+1] - x[i] <= hi_i.
    if let StartRegion::Octagon(oct) = region {
        for (i, diff) in oct.diffs().iter().enumerate() {
            let ge_row = milp.lp().num_constraints();
            milp.lp_mut().add_constraint(
                &[(cut_vars[i + 1], 1.0), (cut_vars[i], -1.0)],
                ConstraintOp::Ge,
                diff.lo,
            );
            milp.lp_mut().add_constraint(
                &[(cut_vars[i + 1], 1.0), (cut_vars[i], -1.0)],
                ConstraintOp::Le,
                diff.hi,
            );
            if let Some(plan) = plan.as_deref_mut() {
                plan.diff_rows.push((ge_row, ge_row + 1));
            }
        }
    }

    let mut num_binaries = 0usize;
    let mut stable_relus = 0usize;

    // Encode the verified tail of the perception network.
    let (output_vars, _) = encode_layers(
        &mut milp,
        &cut_vars,
        &box_domain,
        tail,
        &mut num_binaries,
        &mut stable_relus,
        plan.as_deref_mut().map(|p| &mut p.tail_stages),
    )?;

    // Encode the characterizer and require h_φ = 1 (logit >= 0).
    let logit_var = match characterizer {
        Some(ch) => {
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
            let (logit_vars, _) = encode_layers(
                &mut milp,
                &cut_vars,
                &box_domain,
                ch.layers(),
                &mut num_binaries,
                &mut stable_relus,
                plan.map(|p| &mut p.ch_stages),
            )?;
            let logit = logit_vars[0];
            milp.lp_mut()
                .add_constraint(&[(logit, 1.0)], ConstraintOp::Ge, 0.0);
            Some(logit)
        }
        None => None,
    };

    // Risk condition ψ over the output variables.
    for inequality in risk.inequalities() {
        if inequality.coeffs.len() > output_vars.len() {
            return Err(CoreError::Inconsistent(format!(
                "risk condition references output {} but the network has only {} outputs",
                inequality.coeffs.len() - 1,
                output_vars.len()
            )));
        }
        let coeffs: Vec<(VarId, f64)> = inequality
            .coeffs
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 0.0)
            .map(|(i, c)| (output_vars[i], *c))
            .collect();
        let op = match inequality.op {
            OutputOp::Le => ConstraintOp::Le,
            OutputOp::Ge => ConstraintOp::Ge,
        };
        milp.lp_mut().add_constraint(&coeffs, op, inequality.rhs);
    }

    Ok(EncodedProblem {
        milp,
        cut_vars,
        output_vars,
        logit_var,
        num_binaries,
        stable_relus,
        template_id: None,
    })
}

/// Builds the MILP whose feasibility answers the safety question:
///
/// > does there exist an activation `n̂_l` in `region` such that the tail
/// > maps it to an output satisfying `risk`, while the characterizer's logit
/// > is non-negative (`h_φ = 1`)?
///
/// `Infeasible` therefore proves safety relative to `region` (Lemma 1/2 or
/// the assume-guarantee argument, depending on how `region` was obtained).
///
/// # Errors
/// Returns [`CoreError::NotPiecewiseLinear`] when the tail or characterizer
/// contains layers the encoder cannot represent, and
/// [`CoreError::Inconsistent`] on dimension mismatches, on a region bound
/// that is not finite, and when interval propagation overflows to an
/// infinite bound.
pub fn encode_verification(
    tail: &[Layer],
    characterizer: Option<&Network>,
    risk: &RiskCondition,
    region: &StartRegion,
) -> Result<EncodedProblem, CoreError> {
    encode_core(tail, characterizer, risk, region, None)
}

/// A reusable MILP skeleton for one (tail network, risk condition,
/// characterizer) triple, built once from a **root** start region and
/// instantiated for any sub-region with bound-shaped edits only (see the
/// module docs for the full contract).
#[derive(Debug, Clone)]
pub struct EncodingTemplate {
    skeleton: EncodedProblem,
    tail: ChainPlan,
    characterizer: Option<ChainPlan>,
    diff_rows: Vec<(usize, usize)>,
    root_box: BoxDomain,
    /// `true` when the root region carried octagon difference rows.
    octagonal: bool,
    /// Content-addressed identity stamped onto every instantiation, so
    /// [`EncodingTemplate::instantiate_into`] can reject scratches built by
    /// a structurally *different* template. Also the key under which
    /// templates are shared in [`crate::cache::TemplateCache`].
    fingerprint: Fingerprint,
}

impl EncodingTemplate {
    /// Encodes the skeleton once from `root`. Every later
    /// [`EncodingTemplate::instantiate`] call must use a region contained in
    /// `root` (checked), because the frozen big-M constants are only sound
    /// for subsets of the root box.
    ///
    /// # Errors
    /// Same conditions as [`encode_verification`].
    pub fn build(
        tail: &[Layer],
        characterizer: Option<&Network>,
        risk: &RiskCondition,
        root: &StartRegion,
    ) -> Result<Self, CoreError> {
        let mut plan = TemplatePlan::default();
        let skeleton = encode_core(tail, characterizer, risk, root, Some(&mut plan))?;
        Ok(Self {
            skeleton,
            tail: ChainPlan {
                layers: tail.to_vec(),
                stages: plan.tail_stages,
            },
            characterizer: characterizer.map(|ch| ChainPlan {
                layers: ch.layers().to_vec(),
                stages: plan.ch_stages,
            }),
            diff_rows: plan.diff_rows,
            root_box: root.box_domain(),
            octagonal: matches!(root, StartRegion::Octagon(_)),
            fingerprint: Fingerprint::of_template(tail, characterizer, risk, root),
        })
    }

    /// Content-addressed identity of this template: the canonical
    /// [`Fingerprint`] of its defining `(tail, characterizer, risk, root)`
    /// tuple. Two templates built from identical inputs share a fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The box enclosure of the root region the skeleton was built from.
    pub fn root_box(&self) -> &BoxDomain {
        &self.root_box
    }

    /// The skeleton itself — the problem encoded at the root region.
    /// Instantiating the template at its own root only re-derives these
    /// exact bounds, so callers solving the *root* obligation (e.g. one
    /// whole envelope shard) can use this directly and skip the clone.
    pub(crate) fn root_problem(&self) -> &EncodedProblem {
        &self.skeleton
    }

    /// Whether `region` can be instantiated from this template: the region
    /// kind must match the root's (a box template has no difference rows to
    /// re-tighten; an octagon template would silently impose its root
    /// differences on a plain box), the dimensions must agree, and the
    /// region's box must be contained in the root box (the frozen big-M
    /// constants are only valid for subsets). Callers fall back to
    /// [`encode_verification`] when this returns `false`.
    pub fn supports(&self, region: &StartRegion) -> bool {
        match region {
            StartRegion::Box(b) => self.supports_box(b),
            StartRegion::Octagon(o) => {
                self.octagonal
                    && o.diffs().len() == self.diff_rows.len()
                    && o.dim() == self.root_box.dim()
                    && self.box_within_root(&o.to_box_domain())
            }
        }
    }

    /// [`EncodingTemplate::supports`] for a plain box region, without
    /// wrapping it in a [`StartRegion`] (the refinement work-list checks
    /// whole generations of sub-boxes).
    pub fn supports_box(&self, sub: &BoxDomain) -> bool {
        !self.octagonal && sub.dim() == self.root_box.dim() && self.box_within_root(sub)
    }

    /// Containment of `sub` in the root box up to the support tolerance.
    fn box_within_root(&self, sub: &BoxDomain) -> bool {
        let tol = 1e-9;
        sub.bounds()
            .iter()
            .zip(self.root_box.bounds())
            .all(|(sub, root)| sub.lo >= root.lo - tol && sub.hi <= root.hi + tol)
    }

    /// Instantiates the skeleton for `region`: a clone of the cached MILP
    /// with every variable bound re-tightened to the sub-region (cut layer,
    /// intermediate layers, ReLU outputs), stabilised phase indicators
    /// pinned, and difference rows re-aimed. No constraint row is rebuilt.
    ///
    /// # Errors
    /// Returns [`CoreError::Inconsistent`] when
    /// [`EncodingTemplate::supports`] rejects the region.
    pub fn instantiate(&self, region: &StartRegion) -> Result<EncodedProblem, CoreError> {
        let mut scratch = self.skeleton.clone();
        scratch.template_id = Some(self.fingerprint);
        self.retighten(region, &mut scratch)?;
        Ok(scratch)
    }

    /// Re-tightens an [`EncodedProblem`] previously produced by
    /// [`EncodingTemplate::instantiate`] of this template for a new region,
    /// in place — the zero-allocation path the refinement work-list drives
    /// once per sub-box.
    ///
    /// # Errors
    /// Returns [`CoreError::Inconsistent`] when the region is unsupported or
    /// `scratch` does not structurally match this template's skeleton.
    pub fn instantiate_into(
        &self,
        region: &StartRegion,
        scratch: &mut EncodedProblem,
    ) -> Result<(), CoreError> {
        // Identity check, not just a shape check: two templates can share
        // variable/constraint counts while differing in frozen coefficients
        // (e.g. only a risk-row threshold apart), and re-tightening the
        // wrong skeleton would silently answer the wrong question.
        if scratch.template_id != Some(self.fingerprint) {
            return Err(CoreError::Inconsistent(
                "scratch problem does not derive from this template".into(),
            ));
        }
        self.retighten(region, scratch)
    }

    fn retighten(
        &self,
        region: &StartRegion,
        scratch: &mut EncodedProblem,
    ) -> Result<(), CoreError> {
        if !self.supports(region) {
            return Err(CoreError::Inconsistent(
                "region is not covered by the template's root region".into(),
            ));
        }
        let bounds = self.propagate_region(region);
        self.apply_bounds(region, &bounds, scratch);
        Ok(())
    }

    /// The **propagate** half of an instantiation: interval-propagates the
    /// region through every cached chain and returns the per-stage bounds
    /// the **apply** half ([`EncodingTemplate::instantiate_into_with`])
    /// needs. Splitting the two lets a refinement generation batch the
    /// propagation of all sibling sub-boxes in one SoA pass
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
        Ok(self.propagate_region(region))
    }

    /// Batched [`EncodingTemplate::region_bounds`] for sibling sub-boxes of
    /// one refinement generation: all boxes are propagated through the
    /// cached tail and characterizer chains in a single structure-of-arrays
    /// sweep ([`BoxBatch`]), whose lanes are bit-identical to the scalar
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

    /// [`EncodingTemplate::instantiate_into`] with the propagate half
    /// already done: re-tightens `scratch` using precomputed `bounds`
    /// (typically one lane of [`EncodingTemplate::region_bounds_batch`])
    /// instead of re-propagating the region. The resulting problem is
    /// identical to `instantiate_into(region, scratch)`.
    ///
    /// # Errors
    /// Returns [`CoreError::Inconsistent`] when the region is unsupported,
    /// `scratch` derives from a different template, or `bounds` was
    /// computed by a different template.
    pub fn instantiate_into_with(
        &self,
        region: &StartRegion,
        bounds: &RegionBounds,
        scratch: &mut EncodedProblem,
    ) -> Result<(), CoreError> {
        if scratch.template_id != Some(self.fingerprint) {
            return Err(CoreError::Inconsistent(
                "scratch problem does not derive from this template".into(),
            ));
        }
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
        self.apply_bounds(region, bounds, scratch);
        Ok(())
    }

    /// [`EncodingTemplate::instantiate`] with precomputed bounds: clones
    /// the skeleton and applies `bounds`.
    ///
    /// # Errors
    /// Same conditions as [`EncodingTemplate::instantiate_into_with`].
    pub fn instantiate_with(
        &self,
        region: &StartRegion,
        bounds: &RegionBounds,
    ) -> Result<EncodedProblem, CoreError> {
        let mut scratch = self.skeleton.clone();
        scratch.template_id = Some(self.fingerprint);
        self.instantiate_into_with(region, bounds, &mut scratch)?;
        Ok(scratch)
    }

    /// Scalar propagate half (callers have already validated `region`).
    fn propagate_region(&self, region: &StartRegion) -> RegionBounds {
        let owned_box;
        let region_box: &BoxDomain = match region {
            StartRegion::Box(b) => b,
            StartRegion::Octagon(o) => {
                owned_box = o.to_box_domain();
                &owned_box
            }
        };
        RegionBounds {
            template_id: self.fingerprint,
            tail: propagate_chain_scalar(&self.tail, region_box),
            characterizer: self
                .characterizer
                .as_ref()
                .map(|ch| propagate_chain_scalar(ch, region_box))
                .unwrap_or_default(),
        }
    }

    /// Apply half: bound-shaped MILP edits only, consuming per-stage bounds
    /// in the exact order the fused `retighten_chain` used to produce them,
    /// so the resulting problem is identical.
    fn apply_bounds(
        &self,
        region: &StartRegion,
        bounds: &RegionBounds,
        scratch: &mut EncodedProblem,
    ) {
        let owned_box;
        let region_box: &BoxDomain = match region {
            StartRegion::Box(b) => b,
            StartRegion::Octagon(o) => {
                owned_box = o.to_box_domain();
                &owned_box
            }
        };

        // Cut-layer bounds.
        for (&v, interval) in scratch.cut_vars.iter().zip(region_box.bounds()) {
            scratch
                .milp
                .lp_mut()
                .set_bounds(v, interval.lo, interval.hi);
        }

        // Octagon difference rows.
        if let StartRegion::Octagon(o) = region {
            for (&(ge_row, le_row), diff) in self.diff_rows.iter().zip(o.diffs()) {
                scratch.milp.lp_mut().set_constraint_rhs(ge_row, diff.lo);
                scratch.milp.lp_mut().set_constraint_rhs(le_row, diff.hi);
            }
        }

        let mut binaries = 0usize;
        let mut stable = 0usize;
        apply_chain(
            &mut scratch.milp,
            &self.tail,
            &bounds.tail,
            &mut binaries,
            &mut stable,
        );
        if let Some(ch) = &self.characterizer {
            apply_chain(
                &mut scratch.milp,
                ch,
                &bounds.characterizer,
                &mut binaries,
                &mut stable,
            );
        }
        scratch.num_binaries = binaries;
        scratch.stable_relus = stable;
    }
}

/// Precomputed per-stage interval bounds of one region under one template —
/// the output of the propagate half ([`EncodingTemplate::region_bounds`] /
/// [`EncodingTemplate::region_bounds_batch`]) and the input of the apply
/// half ([`EncodingTemplate::instantiate_into_with`]).
///
/// Per stage the stored bounds are what the apply half edits into the MILP:
/// post-affine bounds for dense/batch-norm stages, **pre-activation** bounds
/// for ReLU stages (they determine both the output-variable bounds and the
/// indicator pinning), and nothing for identity/flatten stages. The struct
/// is opaque and stamped with the template's identity so bounds cannot be
/// applied through the wrong skeleton.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionBounds {
    template_id: Fingerprint,
    tail: Vec<Vec<Interval>>,
    characterizer: Vec<Vec<Interval>>,
}

/// Propagate half over one cached chain: walks the layers with the scalar
/// box transformer and records, per stage, the bounds the apply half needs
/// (see [`RegionBounds`]).
fn propagate_chain_scalar(chain: &ChainPlan, region_box: &BoxDomain) -> Vec<Vec<Interval>> {
    let mut stages = Vec::with_capacity(chain.layers.len());
    let mut cur = region_box.clone();
    let mut next = BoxDomain::from_intervals(Vec::new());
    for layer in &chain.layers {
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

/// Batched propagate half: one [`BoxBatch`] sweep through the chain,
/// returning the per-stage bounds for every lane (`result[lane][stage]`).
/// Lane `s` is bit-identical to `propagate_chain_scalar` of box `s` — the
/// parity the `BoxBatch` kernels guarantee.
fn propagate_chain_batch(chain: &ChainPlan, start: &BoxBatch) -> Vec<Vec<Vec<Interval>>> {
    let lanes = start.lanes();
    let mut per_lane: Vec<Vec<Vec<Interval>>> = (0..lanes)
        .map(|_| Vec::with_capacity(chain.layers.len()))
        .collect();
    let record = |batch: &BoxBatch, per_lane: &mut Vec<Vec<Vec<Interval>>>| {
        for (s, lane) in per_lane.iter_mut().enumerate() {
            lane.push((0..batch.dim()).map(|d| batch.interval(s, d)).collect());
        }
    };
    let mut cur = start.clone();
    let mut next = BoxBatch::empty();
    for layer in &chain.layers {
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

/// Apply half over one cached chain: consumes the recorded per-stage bounds
/// in stage order, re-tightening every stage's variable bounds and pinning
/// ReLU indicators the tighter pre-activation bounds stabilise. Edit order
/// and values match the former fused walk exactly.
fn apply_chain(
    milp: &mut MilpProblem,
    chain: &ChainPlan,
    stage_bounds: &[Vec<Interval>],
    binaries: &mut usize,
    stable: &mut usize,
) {
    for ((layer, stage), bounds) in chain.layers.iter().zip(&chain.stages).zip(stage_bounds) {
        match layer {
            Layer::Dense(_) | Layer::BatchNorm(_) => {
                for (&v, interval) in stage.vars.iter().zip(bounds) {
                    milp.lp_mut().set_bounds(v, interval.lo, interval.hi);
                }
            }
            Layer::Activation(Activation::ReLU) => {
                let indicators = stage
                    .indicators
                    .as_ref()
                    .expect("ReLU stages record their indicators");
                for (j, (&y, indicator)) in stage.vars.iter().zip(indicators).enumerate() {
                    let pre = bounds[j];
                    milp.lp_mut()
                        .set_bounds(y, pre.lo.max(0.0), pre.hi.max(0.0));
                    match indicator {
                        Some(delta) => {
                            if pre.lo >= 0.0 {
                                // Stably active in this sub-region: δ = 1
                                // turns the big-M rows into y = x.
                                milp.lp_mut().set_bounds(*delta, 1.0, 1.0);
                                *stable += 1;
                            } else if pre.hi <= 0.0 {
                                milp.lp_mut().set_bounds(*delta, 0.0, 0.0);
                                *stable += 1;
                            } else {
                                milp.lp_mut().set_bounds(*delta, 0.0, 1.0);
                                *binaries += 1;
                            }
                        }
                        None => *stable += 1,
                    }
                }
            }
            Layer::Activation(Activation::Identity) | Layer::Flatten(_) => {}
            // `EncodingTemplate::build` already rejected anything else.
            _ => unreachable!("non-encodable layer survived template construction"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_lp::MilpStatus;
    use dpv_nn::{Activation, Dense, NetworkBuilder};
    use dpv_tensor::{Matrix, Vector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn instantiate_into_rejects_scratches_from_other_templates() {
        // Two templates over the same tail and root, differing only in the
        // risk threshold: identical variable/constraint *counts*, different
        // frozen row data. Cross-feeding a scratch must error, not silently
        // answer the other template's question.
        let tail = identity_relu_tail();
        let root = StartRegion::Box(BoxDomain::uniform(2, -1.0, 1.0));
        let risk_a = RiskCondition::new("a").output_ge(0, 0.25);
        let risk_b = RiskCondition::new("b").output_ge(0, 5.0);
        let template_a = EncodingTemplate::build(&tail, None, &risk_a, &root).unwrap();
        let template_b = EncodingTemplate::build(&tail, None, &risk_b, &root).unwrap();
        let sub = StartRegion::Box(BoxDomain::uniform(2, -0.5, 0.5));
        let mut scratch_a = template_a.instantiate(&sub).unwrap();
        assert!(matches!(
            template_b.instantiate_into(&sub, &mut scratch_a),
            Err(CoreError::Inconsistent(_))
        ));
        // Same-template reuse still works.
        template_a.instantiate_into(&root, &mut scratch_a).unwrap();
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
        // Tightened differences make the risk unreachable; same skeleton.
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
        // The in-place apply path is identical too.
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
    fn template_instantiation_pins_stabilised_indicators() {
        let tail = identity_relu_tail();
        let root = StartRegion::Box(BoxDomain::uniform(2, -1.0, 1.0));
        let risk = RiskCondition::new("r").output_ge(0, 0.25);
        let template = EncodingTemplate::build(&tail, None, &risk, &root).unwrap();
        let root_encoded = template.instantiate(&root).unwrap();
        assert_eq!(root_encoded.num_binaries, 2);
        // A positive sub-box stabilises both ReLUs: no free binary remains
        // even though the skeleton still carries the indicator columns.
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
