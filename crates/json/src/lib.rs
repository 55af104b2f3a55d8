//! # hlts-json — the workspace's one JSON module
//!
//! The workspace has no serde (it builds offline from in-tree crates),
//! so every JSON byte it reads or writes goes through this crate:
//! [`parse`], a small reader producing a [`Json`] tree, and the writer
//! ([`Obj`], [`ToJson`], [`quote`]) — the only code that escapes
//! strings and formats numbers. The writer has two layouts:
//! [`Obj::line`], the `hlts serve` protocol's one-line form, and
//! [`Obj::document`] (`hlts run/explore --json`, `BENCH_*.json`).
//!
//! ```
//! use hlts_json::{parse, Json, Obj};
//!
//! let line = Obj::new().with("id", "c\"1").with("h", 5.0).with("m", vec!["a"]).line();
//! assert_eq!(line, r#"{"id": "c\"1", "h": 5.0, "m": ["a"]}"#);
//! assert_eq!(parse(&line).unwrap().get("id").and_then(Json::as_str), Some("c\"1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod read;
mod write;

pub use read::{parse, Json, JsonError};
pub use write::{quote, Obj, ToJson};
