//! Error type for the serving runtime.

use std::error::Error;
use std::fmt;

/// Errors produced while configuring or running the serving runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The functional model failed.
    Model(defa_model::ModelError),
    /// The pruning pipeline failed.
    Prune(defa_prune::PruneError),
    /// The accelerator simulation failed.
    Core(defa_core::CoreError),
    /// A serving configuration failed validation.
    InvalidConfig(String),
    /// A single configuration field holds a zero/degenerate value that
    /// must never reach the runtime loop (the field is named so callers
    /// can match on it).
    DegenerateConfig {
        /// The offending `ServeConfig` field.
        field: &'static str,
        /// The rejected value, with the constraint it violated.
        got: String,
    },
    /// The fleet of a `ServeSpec` does not match the configuration.
    FleetMismatch {
        /// Backends in the fleet.
        fleet: usize,
        /// Shards the configuration asks for.
        shards: usize,
    },
    /// A worker shard died before delivering its batch.
    WorkerLost(String),
    /// The engine's conservation check failed: not every arrival was
    /// served or shed exactly once. Always an engine bug, reported as an
    /// error instead of a panic so release builds check it too.
    Conservation {
        /// Sessions served to completion.
        completed: u64,
        /// Requests shed by admission.
        dropped: u64,
        /// Requests the trace offered.
        arrivals: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::Prune(e) => write!(f, "pruning error: {e}"),
            ServeError::Core(e) => write!(f, "accelerator error: {e}"),
            ServeError::InvalidConfig(msg) => write!(f, "invalid serving configuration: {msg}"),
            ServeError::DegenerateConfig { field, got } => {
                write!(f, "degenerate serving configuration: {field} = {got}")
            }
            ServeError::FleetMismatch { fleet, shards } => write!(
                f,
                "fleet of {fleet} backend(s) cannot serve {shards} shard(s): \
                 pass exactly one backend per shard"
            ),
            ServeError::WorkerLost(msg) => write!(f, "worker shard lost: {msg}"),
            ServeError::Conservation { completed, dropped, arrivals } => write!(
                f,
                "engine lost requests: {completed} completed + {dropped} dropped != {arrivals} \
                 arrivals"
            ),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            ServeError::Prune(e) => Some(e),
            ServeError::Core(e) => Some(e),
            ServeError::InvalidConfig(_)
            | ServeError::DegenerateConfig { .. }
            | ServeError::FleetMismatch { .. }
            | ServeError::WorkerLost(_)
            | ServeError::Conservation { .. } => None,
        }
    }
}

impl From<defa_model::ModelError> for ServeError {
    fn from(e: defa_model::ModelError) -> Self {
        ServeError::Model(e)
    }
}

impl From<defa_prune::PruneError> for ServeError {
    fn from(e: defa_prune::PruneError) -> Self {
        ServeError::Prune(e)
    }
}

impl From<defa_core::CoreError> for ServeError {
    fn from(e: defa_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}
