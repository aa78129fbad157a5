//! `sdl-conf` — the declarative-configuration substrate.
//!
//! The WEI platform (paper §2.2) describes workcells and workflows in YAML
//! and publishes run records as JSON. Rather than binding serde format
//! crates, this crate implements the needed subset from scratch:
//!
//! * [`Value`] — an ordered dynamic value tree;
//! * [`from_yaml`] / [`to_yaml`] — a YAML-subset parser and writer (block
//!   and flow collections, quoted scalars, comments);
//! * [`from_json`] / [`to_json`] / [`to_json_pretty`] — JSON reader/writer;
//! * [`lookup`] and the [`ValueExt`] typed accessors with path-qualified
//!   errors.
//!
//! # Example
//!
//! ```
//! use sdl_conf::{from_yaml, ValueExt};
//!
//! let doc = from_yaml("modules:\n  - name: ot2\n    tips: 96\n").unwrap();
//! assert_eq!(doc.req_str("modules.0.name").unwrap(), "ot2");
//! assert_eq!(doc.req_i64("modules.0.tips").unwrap(), 96);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod json;
mod path;
mod value;
mod yaml;

pub use error::{AccessError, ParseError};
pub use json::{from_json, to_json, to_json_pretty};
pub use path::{lookup, ValueExt};
pub use value::{Value, MAX_DEPTH};
pub use yaml::{from_yaml, to_yaml};
