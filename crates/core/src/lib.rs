//! # scrub-core — drift-aware scrub mechanisms for error-prone memories
//!
//! The primary contribution of the HPCA 2012 reproduction: scrub
//! mechanisms tailored to MLC-PCM resistance drift, which trade off soft
//! errors (drift accumulating past ECC capability) against hard errors and
//! energy (every corrective write-back wears cells and burns ~15× a read's
//! energy).
//!
//! ## Mechanisms
//!
//! | Policy | Idea |
//! |--------|------|
//! | [`BasicScrub`] | DRAM-style baseline: sweep + write back on any error |
//! | [`ThresholdScrub`] | lightweight detection, lazy write-back at θ errors |
//! | [`AgeAwareScrub`] | skip lines too young to have drifted |
//! | [`AdaptiveScrub`] | per-region AIMD sweep pacing |
//! | [`CombinedScrub`] | all of the above (the paper's proposal) |
//! | [`ProfiledScrub`] | per-line risk profiling over the budgeted tour |
//!
//! ## Running an experiment
//!
//! ```
//! use scrub_core::{DemandTraffic, PolicyKind, SimConfig, Simulation};
//! use pcm_workloads::WorkloadId;
//!
//! let report = Simulation::new(
//!     SimConfig::builder()
//!         .num_lines(4096)
//!         .policy(PolicyKind::combined_default(900.0))
//!         .traffic(DemandTraffic::suite(WorkloadId::WebServe))
//!         .horizon_s(6.0 * 3600.0)
//!         .build(),
//! )
//! .run();
//! println!("{report}");
//! ```

mod adaptive;
mod age_aware;
mod basic;
mod budget;
mod checkpoint;
mod combined;
mod config;
mod engine;
mod event;
mod policy;
mod profiled;
mod report;
mod sim;
mod threshold;
pub mod tick;
mod tour;

pub use adaptive::AdaptiveScrub;
pub use age_aware::AgeAwareScrub;
pub use basic::BasicScrub;
pub use budget::BudgetScrub;
pub use checkpoint::{run_split, SplitRunOutcome};
pub use combined::CombinedScrub;
pub use config::PolicyKind;
pub use engine::{EngineStats, ScrubEngine};
pub use event::set_skewed_fast_forward_for_test;
#[allow(deprecated)]
pub use event::EngineKind;
pub use policy::{BatchPlan, ScrubAction, ScrubContext, ScrubPolicy, SweepCursor};
pub use profiled::{ProfileParams, ProfiledScrub};
pub use report::SimReport;
pub use sim::{DemandTraffic, SimConfig, SimConfigBuilder, Simulation};
pub use threshold::ThresholdScrub;
pub use tour::{TourBudget, TourScrub};
