//! `perfbench` — the end-to-end benchmark of one
//! `ObligationServer::serve()` request, in three workloads.
//!
//! ```text
//! perfbench --workload <cold|warm-solver|delta> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process holds a resident server with [`WORKERS`] workers and one
//! closed-loop client thread that sends the next request only when the
//! previous report has returned. A run is [`ROUNDS`] rounds; each builds a
//! fresh server and serves the same requests in the same order, so every
//! request's work repeats once per round, and a request's latency is the
//! fastest of its rounds. Set-up (server build, thread spawn, request
//! generation, warm-up and first delta serves) happens before each round's
//! timed phase and is reported as `setup_s`. Every report is checked
//! against the seed's reference (see `check.rs`).
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics in three phases: one round untraced, one round on a
//! server built with an enabled tracer, and a single-thread replay through
//! the layers' public calls (see `replay.rs`). The last line of standard
//! output is one JSON object; a human-readable summary goes to standard
//! error. The exit code is 1 when any request failed and 2 on a usage or
//! set-up error.

mod check;
mod gen;
mod replay;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dpv_core::Verdict;
use dpv_lp::SolveStats;
use dpv_serve::{
    DeltaCounts, ObligationServer, RequestReport, ServeConfig, ServeStats, VerificationRequest,
};
use dpv_trace::Tracer;

use crate::gen::{Spec, BASES};
use crate::replay::Replay;

/// Server worker threads.
const WORKERS: usize = 2;
/// Rounds per run. One serve of a request measures the host and the
/// scheduler as much as the server: on a shared host a neighbour slows
/// every thread of the process by up to a half for seconds at a time, and
/// which worker takes which obligation, and so which pooled basis seeds
/// it, changes from serve to serve. The fastest of five serves spread over
/// the run is rarely one that either slowed.
const ROUNDS: usize = 5;
/// Set-ups per run: one per round, and more, up to `SETUP_MAX_REPS`, while
/// they total under `SETUP_BUDGET_S`, so that the median of a cheap set-up
/// rests on many samples. `setup_s` is the median.
const SETUP_MAX_REPS: usize = 51;
const SETUP_BUDGET_S: f64 = 0.3;
/// A run whose timed phases last this many times longer than planned is
/// cut short (a run must end within 180 s).
const OVERRUN: f64 = 3.0;
/// Share of `--seconds` a traced run spends in its single-thread replay,
/// after one round each on an untraced and on a traced server.
const REPLAY_SHARE: f64 = 0.4;
/// Requests served per second of `--seconds`. A run serves a fixed
/// `seconds × RATE` requests, so that every version of the server does the
/// same work (peak memory grows with the templates served); 25 seconds
/// make 100 requests a round, and the timed phases last 20 to 30 s on a
/// 2-core x86-64 host.
const RATE: f64 = 20.0;
/// Times a warm-solver round serves each checkpoint of its set: the set is
/// warmed in every round's set-up, so a smaller set keeps set-up short.
const WARM_PASSES: usize = 2;
/// Requests per round below which p90 has fewer than ten samples above it.
const MIN_SAMPLES: usize = 100;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("obligations_per_s", "1/s"),
    ("ok_permille", "permille"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 27] = [
    ("serve.admission_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p90_us", "us"),
    ("serve.worker_busy_permille", "permille"),
    ("serve.canonical_resolves_per_request", "count"),
    ("serve.attributed_permille", "permille"),
    ("core.template_build_us", "us"),
    ("core.template_hit_permille", "permille"),
    ("core.snapshot_hit_permille", "permille"),
    ("core.fingerprint_us", "us"),
    ("core.instantiate_us", "us"),
    ("core.solve_us", "us"),
    ("core.canonical_resolve_us", "us"),
    ("absint.bounds_batch_us", "us"),
    ("lp.bnb_nodes_per_obligation", "count"),
    ("lp.simplex_iters_per_obligation", "count"),
    ("lp.warm_lp_permille", "permille"),
    ("lp.warm_declined_permille", "permille"),
    ("lp.ns_per_pivot", "ns"),
    ("lp.root_lp_cold_us", "us"),
    ("lp.root_lp_warm_us", "us"),
    ("delta.diff_us", "us"),
    ("delta.plan_us", "us"),
    ("delta.reused_permille", "permille"),
    ("delta.absorbed_permille", "permille"),
    ("delta.reproved_permille", "permille"),
    ("trace.enabled_overhead_permille", "permille"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Cold,
    WarmSolver,
    Delta,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Cold, Workload::WarmSolver, Workload::Delta];

    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::WarmSolver => "warm-solver",
            Workload::Delta => "delta",
        }
    }

    /// Default sizing, except that `warm-solver` turns the verdict cache
    /// off, so that every obligation is solved, and holds its whole
    /// checkpoint set of `warm_set` in the template cache.
    fn config(self, warm_set: usize) -> ServeConfig {
        let default = ServeConfig::with_workers(WORKERS);
        match self {
            Workload::WarmSolver => ServeConfig {
                verdict_capacity: 0,
                template_capacity: gen::FAMILIES * warm_set,
                ..default
            },
            _ => default,
        }
    }

    /// Requests of the stream served before timing: the warm-up of each
    /// warm-solver checkpoint and the first checkpoint of each delta chain.
    fn warm_up(self, stream: usize) -> usize {
        match self {
            Workload::Cold => 0,
            Workload::WarmSolver => stream,
            Workload::Delta => BASES,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
                "--seconds" => {
                    seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(String::new())),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must be in (0, 120], got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// A resident server with its pre-generated requests.
struct Session {
    workload: Workload,
    server: ObligationServer,
    stream: Vec<VerificationRequest>,
    /// `delta`: per chain, the index of its latest request and its report.
    priors: Vec<(usize, RequestReport)>,
}

/// One timed request.
struct Served {
    /// Index into [`Session::stream`] of the request served.
    index: usize,
    /// Wall seconds of the `serve` / `serve_delta` call.
    seconds: f64,
    outcome: Result<(RequestReport, Option<DeltaCounts>), String>,
}

impl Session {
    /// Builds the server, generates the requests for `items` timed serves,
    /// and serves what the workload needs before timing: each warm-solver
    /// checkpoint once, and the first checkpoint of each delta chain.
    fn setup(
        spec: &Spec,
        workload: Workload,
        items: usize,
        tracer: Option<Tracer>,
    ) -> Result<Session, String> {
        let warm_set = items.div_ceil(WARM_PASSES);
        let mut builder = ObligationServer::builder().config(workload.config(warm_set));
        if let Some(tracer) = tracer {
            builder = builder.tracer(tracer);
        }
        let server = builder.build();
        let stream = match workload {
            Workload::Cold => spec.cold_stream(items),
            Workload::WarmSolver => spec.warm_set(warm_set),
            Workload::Delta => spec.delta_chain(items),
        };
        let mut priors = Vec::new();
        for (i, request) in stream
            .iter()
            .take(workload.warm_up(stream.len()))
            .enumerate()
        {
            let report = server.serve(request).map_err(|e| e.to_string())?;
            check::check_report(spec, request, &report)
                .map_err(|e| format!("set-up serve {i}: {e}"))?;
            if workload == Workload::Delta {
                priors.push((i, report));
            }
        }
        Ok(Session {
            workload,
            server,
            stream,
            priors,
        })
    }

    /// Serves step `step`; `None` when the stream is exhausted.
    fn step(&mut self, step: usize) -> Option<Served> {
        let chains = self.priors.len().max(1);
        let index = match self.workload {
            Workload::Cold => step,
            Workload::WarmSolver => step % self.stream.len(),
            Workload::Delta => chains + step,
        };
        let request = self.stream.get(index)?;
        let started = Instant::now();
        let outcome = match self.workload {
            Workload::Cold | Workload::WarmSolver => {
                self.server.serve(request).map(|report| (report, None))
            }
            Workload::Delta => {
                let (prior_index, prior) = &self.priors[step % chains];
                self.server
                    .serve_delta(&self.stream[*prior_index], prior, request)
                    .map(|delta| {
                        let counts = delta.counts();
                        (delta.report, Some(counts))
                    })
            }
        };
        let seconds = started.elapsed().as_secs_f64();
        if let (Workload::Delta, Ok((report, _))) = (self.workload, &outcome) {
            self.priors[step % chains] = (index, report.clone());
        }
        Some(Served {
            index,
            seconds,
            outcome: outcome.map_err(|e| e.to_string()),
        })
    }
}

/// What the client saw over one timed phase.
#[derive(Default)]
struct Tally {
    latencies_s: Vec<f64>,
    obligations: u64,
    attempted: u64,
    failed: u64,
    /// Obligation verdict classes: safe, unsafe, unknown.
    classes: [u64; 3],
    /// Simplex iterations over the reported obligations.
    pivots: u64,
}

impl Tally {
    fn fail(&mut self, why: String) {
        if self.failed < 5 {
            eprintln!("perfbench: FAILED {why}");
        }
        self.failed += 1;
    }

    fn quantile_ms(&self, q: f64) -> f64 {
        quantile(&self.latencies_s, q) * 1e3
    }
}

/// Requests served in each round of a run of `seconds`.
fn items_per_round(seconds: f64) -> usize {
    ((seconds * RATE).ceil() as usize).div_ceil(ROUNDS)
}

/// Per request of the stream, its fastest serve over the rounds.
fn best_of(rounds: &[Tally]) -> Vec<f64> {
    let served = rounds
        .iter()
        .map(|t| t.latencies_s.len())
        .max()
        .unwrap_or(0);
    (0..served)
        .map(|i| {
            rounds
                .iter()
                .filter_map(|t| t.latencies_s.get(i))
                .fold(f64::INFINITY, |a, &b| a.min(b))
        })
        .collect()
}

/// Nearest-rank quantile (`q` in `(0, 1]`); 0 for no samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the closed loop for `requests` requests (cut short at
/// `deadline`), checking every report; `observe` sees each served request
/// after its check.
fn measure(
    session: &mut Session,
    spec: &Spec,
    requests: usize,
    deadline: Instant,
    mut observe: impl FnMut(&Served),
) -> Tally {
    let mut tally = Tally::default();
    for step in 0..requests {
        if Instant::now() > deadline {
            eprintln!("perfbench: cut short after {step} of {requests} requests");
            break;
        }
        let Some(served) = session.step(step) else {
            eprintln!("perfbench: request stream exhausted after {step} requests");
            break;
        };
        tally.attempted += 1;
        tally.latencies_s.push(served.seconds);
        match &served.outcome {
            Ok((report, _)) => {
                tally.obligations += report.obligations.len() as u64;
                for o in &report.obligations {
                    tally.pivots += o.stats.simplex_iterations as u64;
                    tally.classes[match o.verdict {
                        Verdict::Safe => 0,
                        Verdict::Unsafe(_) => 1,
                        Verdict::Unknown(_) => 2,
                    }] += 1;
                }
                let request = &session.stream[served.index];
                if let Err(e) = check::check_report(spec, request, report) {
                    tally.fail(format!("request {}: {e}", served.index));
                }
            }
            Err(e) => tally.fail(format!("request {}: serve error: {e}", served.index)),
        }
        observe(&served);
    }
    tally
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn permille(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part * 1000.0 / whole
    } else {
        0.0
    }
}

/// Cache hit rates over a phase, from two server statistics snapshots.
fn hit_permille(before: &ServeStats, after: &ServeStats) -> (f64, f64) {
    let t_hits = (after.templates.hits - before.templates.hits) as f64;
    let t_misses = (after.templates.misses - before.templates.misses) as f64;
    let s_hits = (after.snapshots.hits - before.snapshots.hits) as f64;
    let s_misses = (after.snapshots.misses - before.snapshots.misses) as f64;
    (
        permille(t_hits, t_hits + t_misses),
        permille(s_hits, s_hits + s_misses),
    )
}

/// Renders the result line; every declared metric must be present.
fn result_json(
    declared: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = values
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    ))
}

/// Server-side per-layer readings of the traced phase.
#[derive(Default)]
struct ServerLayers {
    requests: u64,
    admission_ns: Vec<f64>,
    queue_wait_ns: Vec<f64>,
    solve_ns: u128,
    /// Per request, in order: admission plus summed worker solve time, in
    /// ns (`None` for a failed request).
    cost_ns: Vec<Option<f64>>,
    lp: SolveStats,
    solved: u64,
    delta: DeltaCounts,
}

impl ServerLayers {
    fn observe(&mut self, served: &Served) {
        let Ok((report, delta)) = &served.outcome else {
            self.cost_ns.push(None);
            return;
        };
        self.requests += 1;
        let solve_ns: u128 = report.obligations.iter().map(|o| o.solve_ns).sum();
        self.solve_ns += solve_ns;
        // Admission: request begin to the first dequeue, or to the end of
        // the request when nothing was enqueued (a fully reused delta).
        let admission = report.timeline.as_ref().and_then(|t| {
            let began = t.began_at_ns?;
            let first = t.obligations.iter().filter_map(|o| o.dequeued_at_ns).min();
            let until = first.or_else(|| t.duration_ns.map(|d| began + d))?;
            Some(until.saturating_sub(began) as f64)
        });
        if let Some(a) = admission {
            self.admission_ns.push(a);
        }
        self.cost_ns.push(admission.map(|a| a + solve_ns as f64));
        if let Some(t) = &report.timeline {
            self.queue_wait_ns.extend(
                t.obligations
                    .iter()
                    .filter_map(|o| o.queue_wait_ns)
                    .map(|w| w as f64),
            );
        }
        for o in report
            .obligations
            .iter()
            .filter(|o| !o.deduped && o.solve_ns > 0)
        {
            self.solved += 1;
            self.lp.nodes_explored += o.stats.nodes_explored;
            self.lp.simplex_iterations += o.stats.simplex_iterations;
            self.lp.warm_solves += o.stats.warm_solves;
            self.lp.cold_solves += o.stats.cold_solves;
            self.lp.warm_declined += o.stats.warm_declined;
        }
        if let Some(d) = delta {
            self.delta.reused += d.reused;
            self.delta.absorbed += d.absorbed;
            self.delta.re_proved += d.re_proved;
            self.delta.newly_degraded += d.newly_degraded;
        }
    }
}

/// Replays the workload's requests on one thread for `seconds`.
fn replay_phase<'a>(
    spec: &'a Spec,
    workload: Workload,
    stream: &[VerificationRequest],
    seconds: f64,
) -> Result<Replay<'a>, String> {
    let mut replay = Replay::new(spec, workload.config(stream.len()).template_capacity);
    let none = vec![None; gen::OBLIGATIONS];
    let check = |verdicts: &[Verdict]| {
        verdicts
            .iter()
            .enumerate()
            .all(|(i, v)| spec.expected(i / gen::SUB_BOXES, v))
            .then_some(())
            .ok_or_else(|| "replayed verdict does not match the reference".to_string())
    };
    // Warm-up mirrors the set-up serves: nothing is recorded.
    let mut priors = Vec::new();
    for (i, request) in stream
        .iter()
        .take(workload.warm_up(stream.len()))
        .enumerate()
    {
        priors.push((i, replay.request(request, i as u64, &none)?));
    }
    replay.record();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut step = 0;
    while Instant::now() < deadline {
        let tag = step as u64;
        match workload {
            Workload::Cold => {
                let Some(request) = stream.get(step) else {
                    break;
                };
                check(&replay.request(request, tag, &none)?)?;
            }
            Workload::WarmSolver => {
                let request = &stream[step % stream.len()];
                check(&replay.request(request, tag, &none)?)?;
            }
            Workload::Delta => {
                let Some(request) = stream.get(BASES + step) else {
                    break;
                };
                let (prior_index, prior) = &priors[step % BASES];
                let verdicts = replay.delta(&stream[*prior_index], prior, request, tag)?;
                check(&verdicts)?;
                priors[step % BASES] = (BASES + step, verdicts);
            }
        }
        step += 1;
    }
    Ok(replay)
}

/// The three phases of a traced run; returns the per-layer metrics and
/// the served requests' attempted/failed counts.
fn traced_run(
    spec: &Spec,
    args: &Args,
    mut session: Session,
) -> Result<(BTreeMap<&'static str, f64>, u64, u64), String> {
    let items = items_per_round(args.seconds);
    let deadline = Instant::now() + Duration::from_secs_f64(OVERRUN * args.seconds);
    let untraced = measure(&mut session, spec, items, deadline, |_| {});
    drop(session);

    let mut session = Session::setup(spec, args.workload, items, Some(Tracer::enabled()))?;
    let mut layers = ServerLayers::default();
    let before = session.server.stats();
    let started = Instant::now();
    let traced = measure(&mut session, spec, items, deadline, |served| {
        layers.observe(served)
    });
    let wall_ns = started.elapsed().as_nanos() as f64;
    let after = session.server.stats();

    let replay_s = REPLAY_SHARE * args.seconds;
    let replay = replay_phase(spec, args.workload, &session.stream, replay_s)?;
    let path = PathBuf::from(format!(
        ".perfbench/spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    replay
        .write_spans(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let requests = layers.requests.max(1) as f64;
    let solved = layers.solved.max(1) as f64;
    let (template_hits, snapshot_hits) = hit_permille(&before, &after);
    let replayed = (replay.requests as usize).min(layers.cost_ns.len());
    let costs: Vec<f64> = layers.cost_ns[..replayed]
        .iter()
        .flatten()
        .copied()
        .collect();
    let server_us = costs.iter().sum::<f64>() / 1e3 / costs.len().max(1) as f64;
    let d = layers.delta;
    let delta_total = (d.reused + d.absorbed + d.re_proved + d.newly_degraded) as f64;
    let lp = layers.lp;
    let (warm, declined) = (lp.warm_solves as f64, lp.warm_declined as f64);
    let admission_us =
        layers.admission_ns.iter().sum::<f64>() / 1e3 / layers.admission_ns.len().max(1) as f64;
    let busy_whole = WORKERS as f64 * wall_ns;
    let canonical = after.canonical_resolves - before.canonical_resolves;
    let (untraced_p50, traced_p50) = (untraced.quantile_ms(0.5), traced.quantile_ms(0.5));
    let metrics = [
        ("serve.admission_us", admission_us),
        (
            "serve.queue_wait_p50_us",
            quantile(&layers.queue_wait_ns, 0.5) / 1e3,
        ),
        (
            "serve.queue_wait_p90_us",
            quantile(&layers.queue_wait_ns, 0.9) / 1e3,
        ),
        (
            "serve.worker_busy_permille",
            permille(layers.solve_ns as f64, busy_whole),
        ),
        (
            "serve.canonical_resolves_per_request",
            canonical as f64 / requests,
        ),
        (
            "serve.attributed_permille",
            permille(replay.attributed_us(), server_us),
        ),
        (
            "core.template_build_us",
            replay.per_request_us("core.template_build"),
        ),
        ("core.template_hit_permille", template_hits),
        ("core.snapshot_hit_permille", snapshot_hits),
        (
            "core.fingerprint_us",
            replay.per_request_us("core.fingerprint"),
        ),
        (
            "core.instantiate_us",
            replay.per_request_us("core.instantiate"),
        ),
        ("core.solve_us", replay.per_request_us("core.solve")),
        (
            "core.canonical_resolve_us",
            replay.per_request_us("core.canonical_resolve"),
        ),
        (
            "absint.bounds_batch_us",
            replay.per_request_us("absint.bounds_batch"),
        ),
        (
            "lp.bnb_nodes_per_obligation",
            lp.nodes_explored as f64 / solved,
        ),
        (
            "lp.simplex_iters_per_obligation",
            lp.simplex_iterations as f64 / solved,
        ),
        (
            "lp.warm_lp_permille",
            permille(warm, warm + lp.cold_solves as f64),
        ),
        (
            "lp.warm_declined_permille",
            permille(declined, warm + declined),
        ),
        ("lp.ns_per_pivot", replay.ns_per_pivot()),
        ("lp.root_lp_cold_us", replay.per_call_us("lp.root_lp_cold")),
        ("lp.root_lp_warm_us", replay.per_call_us("lp.root_lp_warm")),
        ("delta.diff_us", replay.per_request_us("delta.diff")),
        ("delta.plan_us", replay.per_request_us("delta.plan")),
        (
            "delta.reused_permille",
            permille(d.reused as f64, delta_total),
        ),
        (
            "delta.absorbed_permille",
            permille(d.absorbed as f64, delta_total),
        ),
        (
            "delta.reproved_permille",
            permille(d.re_proved as f64, delta_total),
        ),
        (
            "trace.enabled_overhead_permille",
            permille(traced_p50 - untraced_p50, untraced_p50),
        ),
    ];
    eprintln!(
        "perfbench: traced run: {} untraced / {} traced requests, {} replayed; spans in {}",
        untraced.attempted,
        traced.attempted,
        replay.requests,
        path.display()
    );
    Ok((
        metrics.into_iter().collect(),
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
    ))
}

fn run(args: &Args) -> Result<(String, u64), String> {
    let started = Instant::now();
    let spec = Spec::generate(args.seed, BASES)?;
    eprintln!(
        "perfbench: {} seed {}: spec generated in {:.3}s",
        args.workload.name(),
        args.seed,
        started.elapsed().as_secs_f64()
    );

    let mut setup_s: Vec<f64> = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>, items| {
        let started = Instant::now();
        let session = Session::setup(&spec, args.workload, items, None);
        setup_s.push(started.elapsed().as_secs_f64());
        session
    };
    let items = items_per_round(args.seconds);
    if args.trace {
        let session = Session::setup(&spec, args.workload, items, None)?;
        let (metrics, attempted, failed) = traced_run(&spec, args, session)?;
        for (name, value) in &metrics {
            eprintln!("  {name:40} {value:.3}");
        }
        return Ok((
            result_json(&PER_LAYER, &metrics, attempted, failed)?,
            failed,
        ));
    }

    let deadline = Instant::now() + Duration::from_secs_f64(OVERRUN * args.seconds);
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut stats = (ServeStats::default(), ServeStats::default());
    for _ in 0..ROUNDS {
        let mut session = timed_setup(&mut setup_s, items)?;
        let before = session.server.stats();
        rounds.push(measure(&mut session, &spec, items, deadline, |_| {}));
        stats = (before, session.server.stats());
    }
    let rss = peak_rss_mb()?;
    // Extra set-ups, so that a cheap set-up's median rests on many samples.
    while setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S {
        timed_setup(&mut setup_s, items)?;
    }
    let best = best_of(&rounds);
    let sum = |f: fn(&Tally) -> u64| rounds.iter().map(f).sum::<u64>();
    let (attempted, failed) = (sum(|t| t.attempted), sum(|t| t.failed));
    let obligations = sum(|t| t.obligations);
    let classes = [0, 1, 2].map(|c| rounds.iter().map(|t| t.classes[c]).sum::<u64>());
    let pivots = sum(|t| t.pivots);
    let per_request = obligations as f64 / attempted.max(1) as f64;
    let mean_best_s = best.iter().sum::<f64>() / best.len().max(1) as f64;

    let m: BTreeMap<&str, f64> = [
        ("request_p50_ms", quantile(&best, 0.5) * 1e3),
        ("request_p90_ms", quantile(&best, 0.9) * 1e3),
        ("obligations_per_s", per_request / mean_best_s.max(1e-9)),
        (
            "ok_permille",
            permille((attempted - failed) as f64, attempted as f64),
        ),
        ("peak_rss_mb", rss),
        ("setup_s", quantile(&setup_s, 0.5)),
    ]
    .into_iter()
    .collect();

    let (template_hits, snapshot_hits) = hit_permille(&stats.0, &stats.1);
    let total = obligations.max(1) as f64;
    eprintln!(
        "perfbench: {attempted} requests in {ROUNDS} rounds of {items} ({failed} failed, \
         failed_permille {:.1}){} | {per_request:.1} obligations/request, {:.1} pivots each | \
         Safe/Unsafe/Unknown {:.0}/{:.0}/{:.0} permille | template hits {:.0} permille, snapshot \
         hits {:.0} permille",
        permille(failed as f64, attempted as f64),
        if best.len() < MIN_SAMPLES {
            " — fewer than 100 requests a round, p90 is thin"
        } else {
            ""
        },
        pivots as f64 / obligations.max(1) as f64,
        permille(classes[0] as f64, total),
        permille(classes[1] as f64, total),
        permille(classes[2] as f64, total),
        template_hits,
        snapshot_hits,
    );
    let round_p50: Vec<String> = rounds
        .iter()
        .map(|t| format!("{:.1}", t.quantile_ms(0.5)))
        .collect();
    eprintln!("  request_p50_ms of each round: {}", round_p50.join(" "));
    for (name, value) in &m {
        eprintln!("  {name:20} {value:.4}");
    }
    Ok((result_json(&END_TO_END, &m, attempted, failed)?, failed))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold|warm-solver|delta> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((json, failed)) => {
            println!("{json}");
            std::process::exit(i32::from(failed > 0));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(json: &str, section: &str) -> Vec<(String, String)> {
        let field = |object: &str, key: &str| {
            let at = object.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let value = &object[at..];
            let open = value.find('"').expect("string value") + 1;
            let close = open + value[open..].find('"').expect("closing quote");
            value[open..close].to_string()
        };
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array end")];
        body.split('{')
            .skip(1)
            .map(|object| (field(object, "name"), field(object, "unit")))
            .collect()
    }

    fn own(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        assert_eq!(declared(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&json, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
            .take(Workload::ALL.len())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn a_missing_or_undeclared_metric_is_an_error() {
        let mut values: BTreeMap<&str, f64> =
            END_TO_END.iter().map(|(name, _)| (*name, 1.0)).collect();
        let line = result_json(&END_TO_END, &values, 3, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        values.insert("extra", 1.0);
        assert!(result_json(&END_TO_END, &values, 3, 0).is_err());
        values.remove("extra");
        values.remove("setup_s");
        assert!(result_json(&END_TO_END, &values, 3, 0).is_err());
    }

    #[test]
    fn a_request_takes_its_fastest_serve_over_the_rounds() {
        let round = |latencies_s: &[f64]| Tally {
            latencies_s: latencies_s.to_vec(),
            ..Tally::default()
        };
        // The last round was cut short after one request.
        let rounds = [
            round(&[3.0, 1.0, 5.0]),
            round(&[2.0, 4.0, 6.0]),
            round(&[9.0]),
        ];
        assert_eq!(best_of(&rounds), vec![2.0, 1.0, 5.0]);
        assert!(best_of(&[]).is_empty());
    }

    #[test]
    fn arguments_parse_and_reject_unknown_workloads() {
        let args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = args("--workload delta --seed 4 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Delta, 4, 2.0, true)
        );
        assert!(args("--workload hot --seed 4 --seconds 2 --trace 0").is_err());
        assert!(args("--workload cold --seed 4 --trace 0").is_err());
    }
}
