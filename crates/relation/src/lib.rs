//! # charles-relation
//!
//! The relational substrate for [ChARLES](https://arxiv.org/abs/2409.18386):
//! a compact, dependency-free, in-memory columnar table engine.
//!
//! ChARLES compares two *snapshots* of an evolving table. This crate provides
//! everything the recovery engine needs from a database layer:
//!
//! - typed columnar storage with dictionary-encoded strings ([`Column`];
//!   one in-memory layout per type, raw `Arc`-shared buffers),
//! - schemas and tables ([`Schema`], [`Table`], [`TableBuilder`]),
//! - a predicate language for conditions and `WHERE` clauses ([`Predicate`]),
//! - scalar arithmetic expressions for transformations ([`Expr`]),
//! - an UPDATE-statement engine used to *evolve* snapshots
//!   ([`apply_updates`]),
//! - key-based snapshot alignment ([`SnapshotPair`]), and
//! - CSV import/export with type inference ([`read_csv`], [`write_csv`]).
//!
//! ## Example
//!
//! ```
//! use charles_relation::{TableBuilder, SnapshotPair, Predicate, Expr,
//!                        UpdateStatement, apply_updates, ApplyMode};
//!
//! let v2016 = TableBuilder::new("salaries-2016")
//!     .str_col("name", &["Anne", "Bob"])
//!     .str_col("edu", &["PhD", "MS"])
//!     .float_col("bonus", &[23_000.0, 16_000.0])
//!     .key("name")
//!     .build()
//!     .unwrap();
//!
//! // Evolve the snapshot with a latent policy: PhDs get 5% + $1000.
//! let policy = [UpdateStatement::new(
//!     "bonus",
//!     Expr::affine("bonus", 1.05, 1000.0),
//!     Predicate::eq("edu", "PhD"),
//! )];
//! let v2017 = apply_updates(&v2016, &policy, ApplyMode::FirstMatch)
//!     .unwrap()
//!     .table;
//!
//! let pair = SnapshotPair::align(v2016, v2017).unwrap();
//! assert_eq!(pair.target_numeric_aligned("bonus").unwrap()[0], 25_150.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod align;
pub mod builder;
pub mod column;
pub mod csv;
pub mod error;
pub mod expr;
pub mod index;
pub mod predicate;
pub mod schema;
pub mod table;
pub mod update;
pub mod value;
pub mod view;

pub use align::SnapshotPair;
pub use builder::{RowBuilder, TableBuilder};
pub use column::{Column, StrDict};
pub use csv::{read_csv, read_csv_path, write_csv, write_csv_path};
pub use error::{RelationError, Result};
pub use expr::Expr;
pub use index::KeyIndex;
pub use predicate::{CmpOp, Predicate};
pub use schema::{AttrId, AttrRef, Field, Schema};
pub use table::Table;
pub use update::{apply_updates, ApplyMode, UpdateOutcome, UpdateStatement};
pub use value::{DataType, Value};
pub use view::{CodeGroups, CodesView, ColumnView, NumericView};
