//! Umbrella crate re-exporting the full `robustq` workspace.
//!
//! Most users should depend on this crate and use the re-exported modules:
//!
//! ```
//! use robustq::storage::gen::ssb::SsbGenerator;
//! let db = SsbGenerator::new(1).with_rows_per_sf(100).generate();
//! assert!(db.table("lineorder").is_some());
//! ```
pub mod prelude {
    //! The one-stop import for driving the engine.
    //!
    //! Re-exports the types almost every harness, example and bench
    //! binary touches: the executor surface (`Executor`, `ExecOptions`,
    //! `Placement`, the `LearnedModel` cost model), the runners
    //! (`WorkloadRunner`/`RunnerConfig`,
    //! `ServingRunner`/`ServeConfig`), the placement strategies, and the
    //! simulated-machine configuration (`SimConfig`, `Topology`).
    //!
    //! ```
    //! use robustq::prelude::*;
    //! let cfg = RunnerConfig::default().with_users(2).with_chunked_staging();
    //! assert!(cfg.exec.chunked_staging);
    //! ```
    pub use robustq_core::{
        Chopping, CriticalPath, DataDrivenChopping, DataPlacementManager, Strategy,
    };
    pub use robustq_engine::plan::PlanNode;
    pub use robustq_engine::{
        EngineError, ExecOptions, Executor, FeedEvent, FeedSchedule, LearnedModel,
        ModelUpdate, Placement, PlacementPolicy, RunMetrics, RunOutcome, Schedule,
        StagingStats, StandingQuery, WindowKind,
    };
    pub use robustq_serve::{
        ArrivalProcess, QueryMix, ServeConfig, ServingReport, ServingRunner,
        StreamingReport,
    };
    pub use robustq_sim::{DeviceId, FaultPlan, SimConfig, Topology, VirtualTime};
    pub use robustq_storage::Database;
    pub use robustq_workloads::{RunReport, RunnerConfig, WorkloadRunner};
}

pub use robustq_core as core;
pub use robustq_engine as engine;
pub use robustq_sim as sim;
pub use robustq_sql as sql;
pub use robustq_storage as storage;
pub use robustq_trace as trace;
pub use robustq_serve as serve;
pub use robustq_workloads as workloads;
