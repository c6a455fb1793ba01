//! # ChARLES — Change-Aware Recovery of Latent Evolution Semantics
//!
//! Facade crate re-exporting the full ChARLES stack. See `charles_core` for
//! the recovery engine and the README for a tour.

#![forbid(unsafe_code)]

pub use charles_cluster as cluster;
pub use charles_core as core;
pub use charles_diff as diff;
pub use charles_numerics as numerics;
pub use charles_relation as relation;
pub use charles_synth as synth;

/// Commonly used items in one import.
pub mod prelude {
    pub use charles_core::{
        Charles, CharlesConfig, DatasetSpec, ManagerConfig, Query, QueryError, QueryResult,
        Session, SessionManager, SessionStats,
    };
    pub use charles_relation::{
        apply_updates, read_csv, read_csv_path, write_csv, write_csv_path, ApplyMode, CmpOp,
        Column, DataType, Expr, Predicate, Schema, SnapshotPair, Table, TableBuilder,
        UpdateStatement, Value,
    };
}
