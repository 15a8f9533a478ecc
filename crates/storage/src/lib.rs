#![warn(missing_docs)]

//! Columnar in-memory storage layer for the `robustq` engine.
//!
//! This crate rebuilds the storage substrate of a CoGaDB-style column store:
//!
//! * typed, fully materialized columns ([`column::ColumnData`]) with
//!   dictionary encoding for strings,
//! * tables and schemas ([`table::Table`]),
//! * a database catalog with stable column identifiers ([`database::Database`]),
//! * per-column access statistics feeding the data placement manager
//!   ([`stats::AccessStats`]),
//! * deterministic data generators for the Star Schema Benchmark and TPC-H
//!   ([`gen`]).
//!
//! Everything is deliberately simple and allocation-transparent: the
//! co-processor simulator charges virtual time and device memory from the
//! byte sizes reported by [`column::ColumnData::byte_size`], so the storage
//! layer is the single source of truth for all footprint math.
//!
//! # Example
//!
//! ```
//! use robustq_storage::gen::ssb::SsbGenerator;
//!
//! let db = SsbGenerator::new(1).with_rows_per_sf(1_000).generate();
//! let lineorder = db.table("lineorder").unwrap();
//! assert_eq!(lineorder.num_rows(), 1_000);
//! assert!(lineorder.column("lo_discount").is_some());
//! ```

pub mod column;
pub mod compress;
pub mod database;
pub mod error;
pub mod gen;
pub mod stats;
pub mod table;
pub mod types;

pub use column::{ColumnData, DictColumn};
pub use compress::compressed_size;
pub use database::{AppendRecord, ColumnId, Database, DbEpoch};
pub use error::StorageError;
pub use stats::AccessStats;
pub use table::{Field, KeyIndex, Schema, SegmentMeta, Table, DEFAULT_SEAL_ROWS};
pub use types::{DataType, Value};
