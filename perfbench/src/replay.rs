//! Single-thread replay of a workload through the public calls of each
//! layer, with one span around every call.
//!
//! The replay mirrors what `ObligationServer::serve` does per request —
//! decomposition, template fingerprint and fetch/build, region
//! fingerprints, one batched bound sweep per family, then per obligation
//! a seeded solve on a pooled basis and, for seeded `Unsafe` verdicts, the
//! canonical unseeded re-solve — against caches of its own. On top it
//! times calls the server makes inside those (instantiation, the root LP
//! cold and warm) so their cost can be read separately. Spans stay in
//! memory and are written out once, at the end of the run.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dpv_absint::BoxDomain;
use dpv_core::{
    EncodedProblem, Fingerprint, ProblemTemplate, SnapshotPool, SolveOptions, StartRegion, Verdict,
    VerificationProblem,
};
use dpv_delta::{CheckpointDiff, DeltaPlanner, PlannedAction, PriorObligation};
use dpv_lp::BasisSnapshot;
use dpv_serve::{ServeConfig, VerificationRequest};

use crate::gen::{Spec, CUT, OBLIGATIONS, SUB_BOXES};

/// Layers whose replayed time sums to what `serve()` spends in admission
/// and in its workers (the numerator of `serve.attributed_permille`).
/// Instantiation and the root LP solves run inside `core.solve`, and the
/// delta diff and plan run before `serve()` is entered.
pub const ATTRIBUTED: [&str; 6] = [
    "serve.decompose",
    "core.fingerprint",
    "core.template_build",
    "absint.bounds_batch",
    "core.solve",
    "core.canonical_resolve",
];

/// One timed call.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    request: u64,
    layer: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// Replay state: bench-side caches sized like the server's, the spans,
/// and per-layer totals.
pub struct Replay<'a> {
    spec: &'a Spec,
    epoch: Instant,
    /// Spans and totals are kept only while recording (warm-up is not).
    recording: bool,
    next_id: u64,
    spans: Vec<Span>,
    /// Per layer: total nanoseconds and calls.
    totals: BTreeMap<&'static str, (u128, u64)>,
    /// Root-LP pivots of the timed cold and warm root solves.
    root_pivots: u64,
    templates: HashMap<Fingerprint, Arc<ProblemTemplate>>,
    template_capacity: usize,
    snapshots: SnapshotPool,
    root_bases: HashMap<Fingerprint, BasisSnapshot>,
    /// Requests replayed while recording.
    pub requests: u64,
}

impl<'a> Replay<'a> {
    /// A replay with empty caches, holding up to `template_capacity`
    /// templates like the server it mirrors.
    pub fn new(spec: &'a Spec, template_capacity: usize) -> Self {
        Self {
            spec,
            epoch: Instant::now(),
            recording: false,
            next_id: 1,
            spans: Vec::new(),
            totals: BTreeMap::new(),
            root_pivots: 0,
            templates: HashMap::new(),
            template_capacity,
            snapshots: SnapshotPool::new(ServeConfig::default().snapshot_per_key),
            root_bases: HashMap::new(),
            requests: 0,
        }
    }

    /// Starts keeping spans and totals (everything before is warm-up).
    pub fn record(&mut self) {
        self.recording = true;
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn span(&mut self, layer: &'static str, parent: u64, request: u64, started: Instant) {
        let id = self.id();
        self.span_as(id, layer, parent, request, started);
    }

    /// Closes span `id`, opened at `started` (ids come from [`Self::id`]
    /// so that child spans can name their parent before it closes).
    fn span_as(
        &mut self,
        id: u64,
        layer: &'static str,
        parent: u64,
        request: u64,
        started: Instant,
    ) {
        let dur = started.elapsed().as_nanos();
        if self.recording {
            let entry = self.totals.entry(layer).or_default();
            entry.0 += dur;
            entry.1 += 1;
            self.spans.push(Span {
                id,
                parent,
                request,
                layer,
                start_ns: started.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur as u64,
            });
        }
    }

    /// Replays one delta step: diff and plan against the prior checkpoint,
    /// then the request with the planner's verdicts prefilled.
    ///
    /// # Errors
    /// Any layer call that fails.
    pub fn delta(
        &mut self,
        prior_request: &VerificationRequest,
        prior: &[Verdict],
        request: &VerificationRequest,
        tag: u64,
    ) -> Result<Vec<Verdict>, String> {
        let started = Instant::now();
        let diff = CheckpointDiff::between(&prior_request.perception, &request.perception);
        self.span("delta.diff", 0, tag, started);
        let regions: Vec<StartRegion> = (0..OBLIGATIONS)
            .map(|i| StartRegion::Box(self.spec.sub_boxes[i % SUB_BOXES].clone()))
            .collect();
        let prior_obligations: Vec<PriorObligation> = prior
            .iter()
            .zip(&regions)
            .enumerate()
            .map(|(i, (verdict, region))| PriorObligation {
                family: i / SUB_BOXES,
                region: region.clone(),
                verdict: verdict.clone(),
            })
            .collect();
        let started = Instant::now();
        let plan = DeltaPlanner::new()
            .plan(&diff, CUT, &request.risks, &prior_obligations, &regions)
            .map_err(|e| e.to_string())?;
        self.span("delta.plan", 0, tag, started);
        let prefill: Vec<Option<Verdict>> = plan
            .actions()
            .iter()
            .zip(prior)
            .map(|(action, verdict)| match action {
                PlannedAction::Reuse => Some(verdict.clone()),
                PlannedAction::ReuseAbsorbed => Some(Verdict::Safe),
                PlannedAction::Resolve => None,
            })
            .collect();
        self.request(request, tag, &prefill)
    }

    /// Replays one request; `prefill[i]` answers obligation `i` without
    /// solving. Returns every obligation's verdict.
    ///
    /// # Errors
    /// Any layer call that fails.
    pub fn request(
        &mut self,
        request: &VerificationRequest,
        tag: u64,
        prefill: &[Option<Verdict>],
    ) -> Result<Vec<Verdict>, String> {
        let spec = self.spec;
        let rid = self.id();
        let request_started = Instant::now();
        let err = |e: dpv_core::CoreError| e.to_string();

        let started = Instant::now();
        let problems = request
            .risks
            .iter()
            .map(|risk| {
                VerificationProblem::new(
                    request.perception.clone(),
                    CUT,
                    request.characterizer.clone(),
                    risk.clone(),
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        self.span("serve.decompose", rid, tag, started);

        let root = StartRegion::Box(spec.root.clone());
        let mut verdicts = Vec::with_capacity(OBLIGATIONS);
        for (family, problem) in problems.iter().enumerate() {
            let started = Instant::now();
            let fp = problem.template_fingerprint(&root).map_err(err)?;
            self.span("core.fingerprint", rid, tag, started);
            let template = match self.templates.get(&fp) {
                Some(t) => Arc::clone(t),
                None => {
                    let started = Instant::now();
                    let built = Arc::new(problem.encoding_template(&root).map_err(err)?);
                    self.span("core.template_build", rid, tag, started);
                    if self.templates.len() >= self.template_capacity {
                        self.templates.clear();
                        self.root_bases.clear();
                    }
                    self.templates.insert(fp, Arc::clone(&built));
                    built
                }
            };

            let answered = &prefill[family * SUB_BOXES..(family + 1) * SUB_BOXES];
            let pending: Vec<usize> = (0..SUB_BOXES).filter(|&s| answered[s].is_none()).collect();
            let regions: Vec<StartRegion> = pending
                .iter()
                .map(|&s| StartRegion::Box(spec.sub_boxes[s].clone()))
                .collect();
            if !regions.is_empty() {
                let started = Instant::now();
                for region in &regions {
                    black_box(Fingerprint::of_region(region));
                }
                self.span("core.fingerprint", rid, tag, started);
            }
            let bounds = if pending.len() > 1 {
                let boxes: Vec<&BoxDomain> = pending.iter().map(|&s| &spec.sub_boxes[s]).collect();
                let started = Instant::now();
                let batch = template
                    .encoding()
                    .region_bounds_batch(&boxes)
                    .map_err(err)?;
                self.span("absint.bounds_batch", rid, tag, started);
                batch.into_iter().map(Some).collect()
            } else {
                vec![None; pending.len()]
            };

            let mut group: Vec<Option<Verdict>> = answered.to_vec();
            let mut scratch: Option<EncodedProblem> = None;
            let mut instance: Option<EncodedProblem> = None;
            for ((&sub, region), bounds) in pending.iter().zip(&regions).zip(&bounds) {
                let oid = self.id();
                let obligation_started = Instant::now();
                let encoding = template.encoding();
                let started = Instant::now();
                match (instance.as_mut(), bounds) {
                    (Some(e), Some(b)) => encoding.instantiate_into_with(region, b, e),
                    (Some(e), None) => encoding.instantiate_into(region, e),
                    (None, Some(b)) => encoding.instantiate_with(region, b).map(|e| {
                        instance = Some(e);
                    }),
                    (None, None) => encoding.instantiate(region).map(|e| {
                        instance = Some(e);
                    }),
                }
                .map_err(err)?;
                self.span("core.instantiate", oid, tag, started);

                let lp = instance.as_ref().expect("instantiated above").milp.lp();
                let started = Instant::now();
                let cold = black_box(lp.solve());
                self.span("lp.root_lp_cold", oid, tag, started);
                if self.recording {
                    self.root_pivots += cold.iterations as u64;
                }
                match self.root_bases.remove(&fp) {
                    Some(mut basis) => {
                        let started = Instant::now();
                        let warm = black_box(lp.solve_from_basis(&mut basis));
                        self.span("lp.root_lp_warm", oid, tag, started);
                        if let Some(warm) = warm {
                            if self.recording {
                                self.root_pivots += warm.iterations as u64;
                            }
                            self.root_bases.insert(fp, basis);
                        }
                    }
                    None => {
                        if let (_, Some(basis)) = lp.solve_with_snapshot() {
                            self.root_bases.insert(fp, basis);
                        }
                    }
                }

                let mut seed = self.snapshots.check_out(fp);
                let seeded = seed.is_some();
                let started = Instant::now();
                let (mut verdict, _) = problem
                    .solve_with_template(
                        &template,
                        region,
                        &mut SolveOptions::new()
                            .bounds(bounds.as_ref())
                            .scratch(&mut scratch)
                            .seed(&mut seed),
                    )
                    .map_err(err)?;
                self.span("core.solve", oid, tag, started);
                if let Some(basis) = seed.take() {
                    self.snapshots.check_in(fp, basis);
                }
                if seeded && verdict.is_unsafe() {
                    let started = Instant::now();
                    verdict = problem
                        .solve_with_template(
                            &template,
                            region,
                            &mut SolveOptions::new()
                                .bounds(bounds.as_ref())
                                .scratch(&mut scratch),
                        )
                        .map_err(err)?
                        .0;
                    self.span("core.canonical_resolve", oid, tag, started);
                }
                self.span_as(oid, "replay.obligation", rid, tag, obligation_started);
                group[sub] = Some(verdict);
            }
            verdicts.extend(
                group
                    .into_iter()
                    .map(|v| v.expect("every obligation answered")),
            );
        }
        self.span_as(rid, "replay.request", 0, tag, request_started);
        if self.recording {
            self.requests += 1;
        }
        Ok(verdicts)
    }

    /// Mean microseconds per replayed request spent in `layer`.
    pub fn per_request_us(&self, layer: &str) -> f64 {
        let ns = self.totals.get(layer).map_or(0, |t| t.0);
        ns as f64 / 1e3 / self.requests.max(1) as f64
    }

    /// Mean microseconds per call of `layer` (0 when never called).
    pub fn per_call_us(&self, layer: &str) -> f64 {
        self.totals
            .get(layer)
            .map_or(0.0, |&(ns, calls)| ns as f64 / 1e3 / calls.max(1) as f64)
    }

    /// Nanoseconds per simplex pivot over the timed root LP solves.
    pub fn ns_per_pivot(&self) -> f64 {
        let ns: u128 = ["lp.root_lp_cold", "lp.root_lp_warm"]
            .iter()
            .filter_map(|l| self.totals.get(l))
            .map(|t| t.0)
            .sum();
        ns as f64 / self.root_pivots.max(1) as f64
    }

    /// Mean replayed microseconds per request over [`ATTRIBUTED`].
    pub fn attributed_us(&self) -> f64 {
        ATTRIBUTED.iter().map(|l| self.per_request_us(l)).sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// When the file cannot be written.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"layer\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.id, s.parent, s.request, s.layer, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}
