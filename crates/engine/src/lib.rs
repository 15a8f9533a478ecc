#![warn(missing_docs)]

//! Operator-at-a-time query execution engine with CPU and simulated-GPU
//! operator variants.
//!
//! The engine mirrors CoGaDB's processing model (Section 2.5 of the
//! paper): queries are physical operator trees; each operator consumes its
//! complete input and materializes its output; sibling subtrees may run in
//! parallel (inter-operator parallelism). Operators *really execute* on
//! real columns — results are correct and testable — while all reported
//! timing comes from the `robustq-sim` virtual clock.
//!
//! Layout:
//!
//! * [`batch`] — materialized intermediate results ([`batch::Chunk`]),
//! * [`expr`] / [`predicate`] — scalar expressions and filter predicates,
//! * [`ops`] — the operator kernels (selection, hash join, aggregation,
//!   projection, sort/top-k): one production function per operator over
//!   `(chunk, Option<&SelVec>)` and a [`ParallelCtx`],
//! * [`simd`] — the 64-row block form of predicates the selection runs,
//! * [`parallel`] — [`ParallelCtx`] and the morsel worker pool the
//!   kernels fan out on,
//! * [`reference`](mod@reference) — the plain twin of every hot kernel
//!   that tests, benches and oracles compare against (never called by
//!   production code),
//! * [`plan`] — physical plans: [`plan::Op`], the one description of an
//!   operator, and [`PlanNode`], an `Arc<Op>` over its input plans,
//! * [`estimate`] — the simple analytical cardinality estimator used by
//!   compile-time placement heuristics and the SQL planner: one
//!   node-local function, looped once over a flattened plan,
//! * [`exec`] — the discrete-event executor: task graphs (the plan's own
//!   `Op`s plus a whole/shard/merge role), device queues,
//!   transfers, staged heap allocation, operator aborts and the
//!   [`exec::policy::PlacementPolicy`] hook that the placement strategies
//!   in `robustq-core` implement,
//! * [`vectorized`] — a vector-at-a-time comparator engine (stands in for
//!   the MonetDB/Ocelot comparison of Appendix A; see DESIGN.md).

pub mod batch;
pub mod error;
pub mod estimate;
pub mod exec;
pub mod expr;
pub mod ops;
pub mod parallel;
pub mod plan;
pub mod predicate;
pub mod reference;
pub mod simd;
pub mod vectorized;

pub use batch::{Chunk, LazyChunk, SelVec};
pub use error::EngineError;
pub use parallel::{KernelClass, ParallelCtx};
pub use exec::executor::{
    Arrival, ExecOptions, Executor, FeedEvent, FeedSchedule, RunOutcome, Schedule, StandingQuery,
    WindowKind,
};
pub use exec::metrics::{RunMetrics, StagingStats};
pub use exec::model::{CostModelKind, LearnedModel, ModelUpdate};
pub use exec::policy::{Placement, PlacementPolicy, PlaceReason, PolicyCtx, TaskInfo};
pub use exec::task::{Role, ShardSpec};
pub use ops::execute_plan_fused;
pub use plan::{AggFunc, AggSpec, JoinKind, PlanNode, SortKey, SortOrder};
