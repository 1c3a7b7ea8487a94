//! # dpv-bench
//!
//! Shared setup code for the Criterion benchmark harness. Every table and
//! figure of the paper's evaluation (see `DESIGN.md` and `EXPERIMENTS.md`)
//! has one bench target under `benches/`; each target first *prints* the
//! rows/series it reproduces (so `cargo bench` doubles as the experiment
//! harness) and then benchmarks the operation the experiment is about.

use dpv_core::{Workflow, WorkflowConfig, WorkflowOutcome};

/// Ratio → permille conversion for `criterion::report_metric` records
/// (`0` when the denominator is non-positive). Shared by every bench
/// target that emits `*-permille` metrics, so the rounding convention
/// stays uniform across `BENCH_*.json` files.
pub fn permille(numerator: f64, denominator: f64) -> u128 {
    if denominator <= 0.0 {
        return 0;
    }
    ((numerator / denominator) * 1000.0).round().max(0.0) as u128
}

/// Workflow configuration used by every benchmark: large enough that the
/// trained networks behave like the paper's (the bend characterizer is
/// accurate, the traffic one is not), small enough that each bench target
/// finishes in tens of seconds.
pub fn bench_config() -> WorkflowConfig {
    WorkflowConfig {
        training_samples: 220,
        characterizer_samples: 220,
        validation_samples: 150,
        perception_epochs: 15,
        ..WorkflowConfig::small()
    }
}

/// Trains the full pipeline once (perception network, characterizers,
/// envelope, verification experiments, statistics) for use as benchmark
/// setup.
///
/// # Panics
/// Panics when the workflow fails — a benchmark cannot proceed without its
/// subject.
pub fn trained_outcome() -> WorkflowOutcome {
    Workflow::new(bench_config())
        .run()
        .expect("benchmark setup workflow must succeed")
}

/// Convenience: a shorter workflow for benches that only need a trained
/// perception network (not tight characterizers).
///
/// # Panics
/// Panics when the workflow fails.
pub fn quick_outcome() -> WorkflowOutcome {
    let config = WorkflowConfig {
        training_samples: 120,
        characterizer_samples: 120,
        validation_samples: 80,
        perception_epochs: 8,
        ..WorkflowConfig::small()
    };
    Workflow::new(config)
        .run()
        .expect("benchmark setup workflow must succeed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_consistent() {
        let cfg = bench_config();
        assert!(cfg.training_samples >= cfg.validation_samples);
        assert!(cfg.perception_epochs > 0);
    }
}
