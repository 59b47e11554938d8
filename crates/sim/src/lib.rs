//! The discrete-event serving-cluster simulator.
//!
//! GPUs, PCIe links and the inter-node network are replaced by analytic
//! cost models ([`compute`]); everything else — the scheduler's prefix
//! decisions, the user-cache admission/eviction churn, the item placement
//! and its network transfers, one global FIFO seated into rounds under
//! max-batched-tokens — runs for real, event by event ([`driver`]). This is
//! the substrate behind Figures 5–11 and Table 4.
//!
//! # Example
//!
//! ```
//! use bat_sim::{EngineConfig, ServingEngine, SystemKind};
//! use bat_types::{ClusterConfig, DatasetConfig, ModelConfig};
//! use bat_workload::{TraceGenerator, Workload};
//!
//! let ds = DatasetConfig::games();
//! let cfg = EngineConfig::for_system(
//!     SystemKind::Bat,
//!     ModelConfig::qwen2_1_5b(),
//!     ClusterConfig::a100_4node(),
//!     &ds,
//! );
//! let mut traces = TraceGenerator::new(Workload::new(ds, 1), 2);
//! let trace = traces.generate(5.0, 20.0);
//! let stats = ServingEngine::new(cfg).unwrap().run(&trace);
//! assert_eq!(stats.completed, trace.len());
//! ```

pub mod compute;
pub mod driver;
pub mod engine;
pub mod planner;
pub mod stats;

pub use bat_faults::{AppliedFault, FaultEvent, FaultKind, FaultReport, FaultSchedule};
pub use bat_metrics::{SloStats, TierStats};
pub use bat_sched::{
    BatchCompletion, BatchScheduler, BatchShed, BatchingConfig, OverloadConfig, OverloadController,
    RoundRecord,
};
pub use bat_tiers::{ColdFormat, SplitPolicy, TieredKvPool, TiersConfig};
pub use compute::ComputeModel;
pub use driver::SlotDriver;
pub use engine::{
    hrcs_params, hrcs_plan, AdmissionKind, EngineConfig, PolicyKind, ServingEngine, SystemKind,
};
pub use planner::{PlannedJob, RequestPlanner};
pub use stats::{breakdown_by_prefix, RequestRecord, RunStats};
