//! E9: envelope sharding — cluster-partitioned verification and monitoring
//! versus the monolithic envelope.
//!
//! The workload is the E6 cut-4 setup (widened envelope at the earlier cut,
//! 20+ unstable ReLUs) over a **deliberately multi-modal** dataset: the
//! scene generator's `curvature_mix` knob draws most scenes from a bimodal
//! straight-or-tight-curve distribution, so the cut-layer activations
//! cluster and one octagon over all of them is loose. Three measurements:
//!
//! * **verify** — the gap-calibrated refutation proof (risk threshold in
//!   the middle of the monolithic integrality gap, so safety is provable
//!   but needs a real branch-and-bound tree), solved monolithically, with
//!   `k = 1` sharding (must be verdict-identical and time-comparable — the
//!   sharded driver degenerates to the monolithic MILP) and with `k = 4`
//!   sharding (four tighter MILPs, each stabilising more ReLU phases; the
//!   headline speedup).
//! * **volume** — the shard union's box volume relative to the monolithic
//!   envelope (`< 1` on this workload: the shards cut away the empty space
//!   between the activation modes).
//! * **monitor** — out-of-ODD detection of the sharded monitor versus the
//!   monolithic one on the same frames. The union is a subset of the single
//!   octagon, so detection can only rise; the delta is the tightening win.
//!   The sharded monitor must still accept every training frame (the
//!   union-containment invariant).
//!
//! Run with `CRITERION_JSON=BENCH_e9.json` for machine-readable results;
//! besides the timing records the file carries
//! `e9/shard-speedup-permille` (monolithic mean ÷ k = 4 sharded mean ×
//! 1000), `e9/k1-parity-permille` (monolithic ÷ k = 1), `e9/volume-ratio-
//! permille` and `e9/detection-delta-permille`. Single-threaded throughout
//! (the shard dispatch composes with worker threads, but the comparison
//! isolates the tightening effect).
//!
//! **Reading the parity metric**: the contract is a ±5% *band* around
//! exact parity (1000‰), not exact parity — the degenerate k = 1 sharding
//! runs the same MILP through a thin dispatch layer, so small deviations
//! in either direction are noise. The record is monolithic ÷ k = 1, so a
//! value *above* 1000 means k = 1 is *faster* than the monolithic path
//! (the committed baseline of 1007 ⇒ 0.7% faster), below 1000 means
//! slower. `tools/benchgate` enforces the
//! [950, 1050] band in CI. The metric is the median over
//! [`PARITY_PAIRS`] back-to-back monolithic/k = 1 pairs (alternating which
//! runs first), not a ratio of the two timing rows' means: each row is a
//! separate block of 3 samples, and host-load drift between the blocks
//! moved that ratio from 752 to 1077 at one commit on a 2-core host,
//! while the two solves of a pair share their load.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dpv_bench::permille;
use dpv_core::{
    encode_verification, AssumeGuarantee, Characterizer, CharacterizerConfig, InputProperty,
    RiskCondition, ShardedVerificationConfig, StartRegion, VerificationProblem,
    VerificationStrategy, Workflow, WorkflowConfig,
};
use dpv_lp::{BranchAndBoundBackend, SolverBackend};
use dpv_monitor::{ActivationEnvelope, RuntimeMonitor};
use dpv_scenegen::{render_scene, DatasetBundle, GeneratorConfig, OddSampler, PropertyKind};
use dpv_shard::{ShardConfig, ShardedEnvelope, ShardedMonitor};

/// Interleaved monolithic/k = 1 pairs behind `e9/k1-parity-permille`.
const PARITY_PAIRS: usize = 15;

fn bench_e9(c: &mut Criterion) {
    // Multi-modal ODD: 80% of the scenes are either straight or tight
    // curves, so cut-layer activations form clusters.
    let mut scene = dpv_scenegen::SceneConfig::small();
    scene.curvature_mix = 0.8;
    let outcome = Workflow::new(WorkflowConfig {
        scene,
        training_samples: 150,
        characterizer_samples: 150,
        validation_samples: 80,
        perception_epochs: 10,
        ..WorkflowConfig::small()
    })
    .run()
    .expect("benchmark setup workflow must succeed");

    let generator = GeneratorConfig {
        scene,
        samples: 150,
        seed: 11,
        threads: 1,
    };
    let bundle = DatasetBundle::generate(&generator);
    let mut rng = StdRng::seed_from_u64(17);
    let examples = dpv_scenegen::property_examples(&scene, PropertyKind::BendsRight, 160, &mut rng);

    // E6 cut-4 setup (as in E7/E8): widened envelope at the earlier cut →
    // 20+ unstable ReLUs and genuine branch-and-bound trees.
    let cut = 4usize;
    let margin = 0.25;
    let characterizer = Characterizer::train(
        InputProperty::new("bends_right", "scene oracle"),
        &outcome.perception,
        cut,
        &examples,
        &CharacterizerConfig::small(),
        &mut rng,
    )
    .expect("characterizer training");
    let monolithic =
        ActivationEnvelope::from_inputs(&outcome.perception, cut, &bundle.images, margin)
            .expect("envelope from training activations");
    let shard_seed = 23u64;
    let sharded_k1 = ShardedEnvelope::from_inputs(
        &outcome.perception,
        cut,
        &bundle.images,
        margin,
        &ShardConfig::fixed(1).with_seed(shard_seed),
    )
    .expect("k = 1 sharding");
    let sharded_k4 = ShardedEnvelope::from_inputs(
        &outcome.perception,
        cut,
        &bundle.images,
        margin,
        &ShardConfig::fixed(4).with_seed(shard_seed),
    )
    .expect("k = 4 sharding");
    assert_eq!(sharded_k1.merged(), monolithic, "k = 1 must reproduce S̃");

    // --- Volume: the shard union covers strictly less than the box -------
    let volume_ratio = sharded_k4.box_volume_ratio(&monolithic);
    println!(
        "e9 setup: {} shards (sizes {:?}), union/monolithic box volume {:.4}",
        sharded_k4.shard_count(),
        sharded_k4
            .shards()
            .iter()
            .map(|s| s.sample_count())
            .collect::<Vec<_>>(),
        volume_ratio
    );
    assert!(
        volume_ratio < 1.0,
        "the shard union must be strictly tighter on the multi-modal data \
         (got ratio {volume_ratio:.4})"
    );
    criterion::report_metric("e9/volume-ratio-permille", permille(volume_ratio, 1.0));

    // --- Gap calibration: a provable-but-nontrivial refutation risk ------
    // Minimise output0 over the monolithic octagon; a threshold in the
    // middle of the integrality gap keeps the root relaxation feasible
    // while the MILP is not, so the proof explores a real tree.
    let (_, tail) = outcome.perception.split_at(cut).expect("split");
    let encoded = encode_verification(
        tail.layers(),
        Some(characterizer.network()),
        &RiskCondition::new("vacuous").output_ge(0, -1e9),
        &StartRegion::Octagon(monolithic.octagon().clone()),
    )
    .expect("encoding");
    let mut bound_milp = encoded.milp.clone();
    bound_milp
        .lp_mut()
        .set_objective(&[(encoded.output_vars[0], 1.0)], false);
    let relaxation = bound_milp.lp().solve();
    let exact = BranchAndBoundBackend.solve(&bound_milp);
    let gap = exact.objective - relaxation.objective;
    let threshold = if gap > 1e-6 {
        relaxation.objective + 0.5 * gap
    } else {
        exact.objective - 0.05
    };
    println!(
        "e9 calibration: {} binaries, relaxation {:.4}, exact {:.4}, threshold {:.4}",
        encoded.num_binaries, relaxation.objective, exact.objective, threshold
    );
    let risk = RiskCondition::new("steer far left").output_le(0, threshold);
    let problem =
        VerificationProblem::new(outcome.perception.clone(), cut, characterizer.clone(), risk)
            .expect("problem assembly");
    let monolithic_strategy = VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
        envelope: monolithic.clone(),
        use_difference_constraints: true,
    });
    let shard_config = ShardedVerificationConfig::default();

    // --- One checked pass: verdicts agree, per-shard stats print ---------
    let mono_outcome = problem
        .verify_with(&monolithic_strategy, &BranchAndBoundBackend)
        .expect("monolithic verification");
    assert!(
        mono_outcome.verdict.is_safe(),
        "the calibrated risk must be provably safe: {}",
        mono_outcome.summary()
    );
    let k1_report = problem
        .verify_sharded_with(&sharded_k1, &shard_config, &BranchAndBoundBackend)
        .expect("k = 1 sharded verification");
    assert_eq!(
        k1_report.verdict, mono_outcome.verdict,
        "k = 1 sharding must be verdict-identical to the monolithic path"
    );
    assert_eq!(k1_report.shards[0].num_binaries, mono_outcome.num_binaries);
    let k4_report = problem
        .verify_sharded_with(&sharded_k4, &shard_config, &BranchAndBoundBackend)
        .expect("k = 4 sharded verification");
    assert!(k4_report.verdict.is_safe(), "{}", k4_report.summary());
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>10}",
        "shard", "samples", "binaries", "stable", "nodes"
    );
    for shard in &k4_report.shards {
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>10}",
            format!("k4/{}", shard.shard),
            shard.samples,
            shard.num_binaries,
            shard.stable_relus,
            shard.stats.nodes_explored
        );
        assert!(shard.num_binaries <= mono_outcome.num_binaries);
    }

    // --- Timed benchmark entries ----------------------------------------
    let time_monolithic = || {
        let start = Instant::now();
        let outcome = problem
            .verify_with(&monolithic_strategy, &BranchAndBoundBackend)
            .expect("monolithic verification");
        assert!(outcome.verdict.is_safe());
        start.elapsed().as_secs_f64()
    };
    let time_sharded = |envelope: &ShardedEnvelope| {
        let start = Instant::now();
        let report = problem
            .verify_sharded_with(envelope, &shard_config, &BranchAndBoundBackend)
            .expect("sharded verification");
        assert!(report.verdict.is_safe());
        start.elapsed().as_secs_f64()
    };
    let mut group = c.benchmark_group("e9");
    group.sample_size(3);
    let mut means: Vec<(String, f64)> = Vec::new();
    {
        let mut samples = Vec::new();
        group.bench_function(BenchmarkId::new("verify", "monolithic"), |b| {
            b.iter(|| samples.push(time_monolithic()))
        });
        means.push((
            "monolithic".into(),
            samples.iter().sum::<f64>() / samples.len().max(1) as f64,
        ));
    }
    for (label, envelope) in [("sharded-k1", &sharded_k1), ("sharded-k4", &sharded_k4)] {
        let mut samples = Vec::new();
        group.bench_function(BenchmarkId::new("verify", label), |b| {
            b.iter(|| samples.push(time_sharded(envelope)))
        });
        means.push((
            label.into(),
            samples.iter().sum::<f64>() / samples.len().max(1) as f64,
        ));
    }
    group.finish();

    let mean_of = |label: &str| {
        means
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, m)| *m)
            .expect("benchmark ran")
    };
    let mono_mean = mean_of("monolithic");
    let k1_mean = mean_of("sharded-k1");
    let k4_mean = mean_of("sharded-k4");
    println!(
        "e9 verify means: monolithic {:.3}s, k1 {:.3}s ({:.2}x), k4 {:.3}s ({:.2}x)",
        mono_mean,
        k1_mean,
        mono_mean / k1_mean.max(1e-9),
        k4_mean,
        mono_mean / k4_mean.max(1e-9)
    );
    criterion::report_metric("e9/shard-speedup-permille", permille(mono_mean, k4_mean));

    // --- k = 1 parity: median of interleaved pairs -----------------------
    let time_k1 = || time_sharded(&sharded_k1);
    let mut ratios: Vec<f64> = (0..PARITY_PAIRS)
        .map(|pair| {
            let (mono, k1) = if pair % 2 == 0 {
                let mono = time_monolithic();
                (mono, time_k1())
            } else {
                let k1 = time_k1();
                (time_monolithic(), k1)
            };
            mono / k1
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let parity = ratios[PARITY_PAIRS / 2];
    println!(
        "e9 k1 parity: median monolithic/k1 ratio {parity:.3} over {PARITY_PAIRS} interleaved \
         pairs (range {:.3}-{:.3})",
        ratios[0],
        ratios[PARITY_PAIRS - 1]
    );
    criterion::report_metric("e9/k1-parity-permille", permille(parity, 1.0));

    // --- Monitor: detection-rate delta on identical frames ---------------
    let mono_monitor = RuntimeMonitor::new(outcome.perception.clone(), cut, monolithic.clone())
        .expect("monolithic monitor");
    let shard_monitor = ShardedMonitor::new(outcome.perception.clone(), cut, sharded_k4.clone())
        .expect("sharded monitor");
    // Invariant: no training frame may be rejected by the shard union.
    for image in &bundle.images {
        assert!(
            shard_monitor.check(image).is_in_odd(),
            "the sharded monitor rejected a training-set activation"
        );
    }
    let sampler = OddSampler::new(scene);
    let mut monitor_rng = StdRng::seed_from_u64(29);
    let frames = 200usize;
    let mut mono_flagged = 0usize;
    let mut shard_flagged = 0usize;
    for _ in 0..frames {
        let image = render_scene(&sampler.sample_out_of_odd(&mut monitor_rng), &scene);
        let mono_out = !mono_monitor.check(&image).is_in_odd();
        let shard_out = !shard_monitor.check(&image).is_in_odd();
        assert!(
            shard_out || !mono_out,
            "the shard union accepted a frame the monolithic octagon flags"
        );
        mono_flagged += usize::from(mono_out);
        shard_flagged += usize::from(shard_out);
    }
    let mut mono_in_odd = 0usize;
    let mut shard_in_odd = 0usize;
    for _ in 0..frames {
        let image = render_scene(&sampler.sample_in_odd(&mut monitor_rng), &scene);
        mono_in_odd += usize::from(mono_monitor.check(&image).is_in_odd());
        shard_in_odd += usize::from(shard_monitor.check(&image).is_in_odd());
    }
    let mono_rate = mono_flagged as f64 / frames as f64;
    let shard_rate = shard_flagged as f64 / frames as f64;
    println!(
        "e9 monitor: out-of-ODD detection monolithic {:.3} vs sharded {:.3} \
         (in-ODD acceptance {:.3} vs {:.3})",
        mono_rate,
        shard_rate,
        mono_in_odd as f64 / frames as f64,
        shard_in_odd as f64 / frames as f64
    );
    assert!(shard_rate >= mono_rate);
    criterion::report_metric(
        "e9/detection-delta-permille",
        permille(shard_rate - mono_rate, 1.0),
    );

    // One timed entry for the per-frame monitor cost at k = 4 (the price of
    // the tighter detection is k containment checks per frame).
    let probe = render_scene(&sampler.sample_in_odd(&mut monitor_rng), &scene);
    let mut group = c.benchmark_group("e9");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("monitor-frame", "sharded-k4"), |b| {
        b.iter(|| shard_monitor.check(&probe).is_in_odd())
    });
    group.finish();
}

criterion_group!(benches, bench_e9);
criterion_main!(benches);
