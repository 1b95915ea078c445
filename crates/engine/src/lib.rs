//! # fw-engine — a Trill-like streaming engine
//!
//! Executes the logical plans produced by [`fw_core`]: raw-fed and
//! sub-aggregate-fed window operators with grouped (keyed) state, multicast
//! routing, and union result collection, over in-order event streams —
//! single-threaded through [`PlanPipeline`], or key-partitioned across
//! worker threads through [`ShardedPipeline`].
//!
//! The engine is the substrate standing in for Trill in the paper's
//! evaluation: per-event work matches the paper's cost model (one
//! accumulator update per containing instance when raw-fed, one combine
//! per covering instance when sub-aggregate-fed), so measured throughput
//! tracks modeled costs the way Figure 19 requires.
//!
//! ```
//! use fw_core::prelude::*;
//! use fw_engine::{Event, PipelineOptions, PlanPipeline};
//!
//! let windows = WindowSet::new(vec![Window::tumbling(20)?, Window::tumbling(40)?])?;
//! let query = WindowQuery::new(windows, AggregateFunction::Min);
//! let outcome = Optimizer::default().optimize(&query)?;
//! let events: Vec<Event> = (0..200).map(|t| Event::new(t, 0, f64::from(t as u32))).collect();
//!
//! let opts = PipelineOptions::collecting();
//! let original = PlanPipeline::run(&outcome.original.plan, &events, opts).unwrap();
//! let factored = PlanPipeline::run(&outcome.factored.plan, &events, opts).unwrap();
//! assert_eq!(
//!     fw_engine::sorted_results(original.results),
//!     fw_engine::sorted_results(factored.results),
//! );
//! # Ok::<(), fw_core::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod agg;
pub mod batch;
pub mod checkpoint;
mod driver;
pub mod error;
pub mod event;
pub mod executor;
pub mod fasthash;
pub mod group;
pub mod multi;
pub mod pane;
pub mod profile;
pub mod reference;
pub mod reorder;
pub mod shard;
pub mod slab;
pub mod throughput;
pub mod trace;

pub use agg::{Aggregate, AvgAgg, CountAgg, MaxAgg, MedianAgg, MinAgg, SumAgg};
pub use batch::{EventBatch, BATCH_SPARE_CAP};
pub use checkpoint::{
    merge_pipeline_snapshots, partition_pipeline_snapshot, CheckpointError, SnapshotSummary,
};
pub use error::{EngineError, Result};
pub use event::{
    merge_ordered, sorted_results, CanonicalOrder, Event, OrderedRun, ResultSink, WindowResult,
};
pub use executor::{ExecStats, PipelineOptions, PlanPipeline, RunOutput, PROFILE_CLOCK_STRIDE};
pub use fasthash::{FastBuildHasher, FastMap, FastU32BuildHasher, FastU32Map};
pub use group::{
    sorted_group_results, BackendFactory, ExecBackend, GroupExec, GroupResult, GroupRunOutput,
};
pub use pane::DEFAULT_ELEMENT_WORK;
pub use profile::{NodeProfile, ProfileLevel, RETIRED_NODE};
pub use reference::reference_results;
pub use reorder::ReorderBuffer;
pub use shard::{route_of, Parallelism, ShardedPipeline};
pub use slab::{KeyInterner, Slab};
pub use throughput::{measure_throughput, Throughput};
pub use trace::{TraceEvent, TraceEventKind, TraceRing, DEFAULT_TRACE_CAP};
