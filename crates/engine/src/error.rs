//! Engine error types.

use std::fmt;

/// Errors raised while compiling or executing a physical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum EngineError {
    /// The plan references a holistic function in a sub-aggregate position;
    /// holistic sub-aggregates do not exist (Section III-A), so such plans
    /// must be rejected rather than silently mis-executed.
    HolisticSubAggregate { function: &'static str },
    /// Events must arrive in non-decreasing timestamp order; the paper's
    /// model (and this engine) assumes in-order streams.
    OutOfOrderEvent { at: u64, watermark: u64 },
    /// The plan failed structural validation.
    InvalidPlan(String),
    /// A columnar push's three column slices disagree on length; the
    /// columns of one batch must describe the same events.
    ColumnLengthMismatch {
        times: usize,
        keys: usize,
        values: usize,
    },
    /// The swap cannot be performed in place: a group's execution
    /// strategy would have to change mid-stream.
    RebuildUnsupported { reason: &'static str },
    /// A distributed backend lost a worker: transport failure, a worker
    /// process dying mid-stream, or a protocol violation on the shard
    /// link. The backend is poisoned — results already gathered remain
    /// valid, further pushes fail.
    Distributed(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::HolisticSubAggregate { function } => {
                write!(f, "{function} cannot be computed from sub-aggregates")
            }
            EngineError::OutOfOrderEvent { at, watermark } => {
                write!(
                    f,
                    "out-of-order event at t={at} behind watermark {watermark}"
                )
            }
            EngineError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            EngineError::ColumnLengthMismatch {
                times,
                keys,
                values,
            } => {
                write!(
                    f,
                    "column length mismatch: {times} timestamps, {keys} keys, {values} values"
                )
            }
            EngineError::RebuildUnsupported { reason } => {
                write!(f, "pipeline cannot be rebuilt in place: {reason}")
            }
            EngineError::Distributed(msg) => write!(f, "distributed backend failed: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
