#![warn(missing_docs)]

//! Experiment orchestration for the anycast-context reproduction of
//! *"Anycast in Context: A Tale of Two Systems"* (SIGCOMM 2021).
//!
//! * [`world`] — builds one deterministic simulated world: topology,
//!   root letters, CDN rings, user population, and every measurement
//!   campaign,
//! * [`experiments`] — one function per paper table/figure, keyed by id
//!   (`fig2` … `fig14`, `tab1` … `tab5`, `appc`),
//! * [`artifact`] — the figure/table output types with text and CSV
//!   renderers.
//!
//! The `repro` binary drives the registry:
//!
//! ```text
//! cargo run --release -p anycast-core --bin repro -- --scale 0.5 all
//! ```

pub mod artifact;
pub mod cli;
pub mod experiments;
pub mod world;

pub use artifact::Artifact;
pub use world::{World, WorldConfig};
