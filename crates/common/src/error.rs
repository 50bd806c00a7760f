//! Error type shared across the workspace.

use std::fmt;

/// Convenient alias used by all flowtune crates.
pub type Result<T> = std::result::Result<T, FlowtuneError>;

/// Errors produced anywhere in the flowtune workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowtuneError {
    /// Invalid configuration value.
    Config(String),
    /// A dataflow DAG is malformed (cycle, dangling edge, ...).
    InvalidDag(String),
    /// A schedule violates a constraint (overlap, dependency order, ...).
    InvalidSchedule(String),
    /// A storage-layer failure (partition missing, cache misuse, ...).
    Storage(String),
    /// On-disk state failed verification (checksum mismatch, stale
    /// epoch, truncated image, structural invariant violation).
    Corrupt(String),
}

impl FlowtuneError {
    /// Build a [`FlowtuneError::Config`].
    pub fn config(msg: impl Into<String>) -> Self {
        FlowtuneError::Config(msg.into())
    }

    /// Build a [`FlowtuneError::InvalidDag`].
    pub fn invalid_dag(msg: impl Into<String>) -> Self {
        FlowtuneError::InvalidDag(msg.into())
    }

    /// Build a [`FlowtuneError::InvalidSchedule`].
    pub fn invalid_schedule(msg: impl Into<String>) -> Self {
        FlowtuneError::InvalidSchedule(msg.into())
    }

    /// Build a [`FlowtuneError::Storage`].
    pub fn storage(msg: impl Into<String>) -> Self {
        FlowtuneError::Storage(msg.into())
    }

    /// Build a [`FlowtuneError::Corrupt`].
    pub fn corrupt(msg: impl Into<String>) -> Self {
        FlowtuneError::Corrupt(msg.into())
    }
}

impl fmt::Display for FlowtuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowtuneError::Config(m) => write!(f, "configuration error: {m}"),
            FlowtuneError::InvalidDag(m) => write!(f, "invalid dataflow DAG: {m}"),
            FlowtuneError::InvalidSchedule(m) => write!(f, "invalid schedule: {m}"),
            FlowtuneError::Storage(m) => write!(f, "storage error: {m}"),
            FlowtuneError::Corrupt(m) => write!(f, "corrupt state: {m}"),
        }
    }
}

impl std::error::Error for FlowtuneError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = FlowtuneError::invalid_dag("cycle at op3");
        assert_eq!(e.to_string(), "invalid dataflow DAG: cycle at op3");
        let e = FlowtuneError::config("bad alpha");
        assert!(e.to_string().contains("configuration"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&FlowtuneError::storage("partition 9 missing"));
    }
}
