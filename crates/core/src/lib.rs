//! # dpv-core
//!
//! The paper's contribution: safety verification of direct-perception
//! neural networks by
//!
//! 1. **learning an input property characterizer** `h_φ` attached to a
//!    close-to-output layer `l` of the perception network, so the otherwise
//!    unformalisable input condition φ ("the road strongly bends to the
//!    right") becomes a constraint the verifier can use
//!    ([`Characterizer`]);
//! 2. **verifying only the tail** of the network from layer `l` to the
//!    output, over a set `S` of possible layer-`l` activations, via a
//!    reduction to MILP ([`VerificationProblem`], [`encode_verification`]);
//! 3. choosing `S` per one of three strategies ([`VerificationStrategy`]):
//!    the whole space (Lemma 1), a sound abstract-interpretation bound from
//!    the input domain (Lemma 2), or the **assume-guarantee envelope** built
//!    from training-data activations, which must then be monitored at run
//!    time (Section II-B);
//! 4. **statistical reasoning** (Section III, Table I) that quantifies the
//!    residual risk `γ` when the characterizer is imperfect
//!    ([`StatisticalAnalysis`]).
//!
//! The [`Workflow`] type wires everything together end to end — scene
//! generation, perception-network training, characterizer training, envelope
//! construction, verification and the statistical table — and is what the
//! examples and benchmarks drive.
//!
//! ## Example
//!
//! ```no_run
//! use dpv_core::{Workflow, WorkflowConfig};
//!
//! # fn main() -> Result<(), dpv_core::CoreError> {
//! let outcome = Workflow::new(WorkflowConfig::small()).run()?;
//! println!("{}", outcome.report());
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod characterizer;
mod encode;
mod error;
mod fingerprint;
mod refine;
mod shard_verify;
mod spec;
mod statistical;
mod verify;
mod workflow;

pub use cache::{CacheStats, SnapshotPool, SnapshotPoolStats, TemplateCache};
pub use characterizer::{Characterizer, CharacterizerConfig};
pub use encode::{
    check_finite, encode_verification, EncodedProblem, EncodingTemplate, RegionBounds, StartRegion,
};
pub use error::CoreError;
pub use fingerprint::{ContentHasher, Fingerprint};
pub use refine::{split_box, RefinedVerdict, RefinementReport, RefinementVerifier};
pub use shard_verify::{ShardObligation, ShardedVerificationReport};
pub use spec::{InputProperty, LinearInequality, OutputOp, RiskCondition};
pub use statistical::{ConfusionTable, StatisticalAnalysis};
pub use verify::{
    AssumeGuarantee, CounterExample, DomainKind, ProblemTemplate, SolveOptions, Verdict,
    VerificationOutcome, VerificationProblem, VerificationStrategy,
};
pub use workflow::{
    ScenarioFamilyResult, ScenarioReport, ViolationDetection, Workflow, WorkflowConfig,
    WorkflowOutcome,
};
