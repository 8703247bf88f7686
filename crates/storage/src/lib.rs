//! # dbs3-storage
//!
//! Partitioned storage model for the DBS3 reproduction.
//!
//! DBS3 uses a *parallel storage model*: relations are statically partitioned
//! by hashing one or more attributes into a configurable number of fragments
//! (the *degree of partitioning*), and the fragments are placed onto disks in
//! a round-robin fashion. The degree of partitioning is therefore independent
//! of the number of disks, which is the property the paper exploits to absorb
//! data skew (Section 5.6).
//!
//! This crate provides:
//!
//! * the value / schema / tuple / relation types ([`value`], [`schema`],
//!   [`mod@tuple`], [`relation`]),
//! * hash partitioning with round-robin disk placement ([`partition`],
//!   [`fragment`]),
//! * the Wisconsin benchmark generator used by all of the paper's experiments
//!   ([`wisconsin`]),
//! * the Zipf fragment-cardinality skew generator used in Expt 1–3 ([`zipf`]),
//! * temporary hash indexes built on the fly as in Expt 3 ([`index`]),
//! * a small catalog to register relations by name ([`catalog`]).
//!
//! All relations are kept in main memory, exactly as in the paper's
//! experiments (the KSR1 configuration had a single disk, so measurements
//! were done with cached relations).

// A panic here kills a query, a session thread or the process: each
// justified site carries an `#[expect(clippy::.., reason = "..")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod catalog;
pub mod error;
pub mod fragment;
pub mod index;
pub mod partition;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;
pub mod wisconsin;
pub mod zipf;

pub use catalog::Catalog;
pub use error::StorageError;
pub use fragment::{Fragment, RouteTable};
pub use index::HashIndex;
pub use partition::{PartitionSpec, PartitionedRelation};
pub use relation::Relation;
pub use schema::{ColumnDef, DataType, Schema};
pub use tuple::Tuple;
pub use value::Value;
pub use wisconsin::{WisconsinConfig, WisconsinGenerator};
pub use zipf::Zipf;

/// Convenient `Result` alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
