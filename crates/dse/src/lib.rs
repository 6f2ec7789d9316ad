//! # accelsoc-dse — design space exploration
//!
//! The paper performs hardware/software partitioning manually and "leaves
//! the integration with DSE tools as a future work". This crate supplies
//! that future work: given per-task cost profiles (software time from the
//! CPU model, hardware time and area from HLS reports, transfer sizes for
//! the data crossing each boundary), it searches the 2^N partition space
//! and reports the area/runtime Pareto front.
//!
//! * [`model`] — the chain cost model: per-task profiles, streaming
//!   overlap inside contiguous hardware segments, DMA boundary costs;
//! * [`search`] — exhaustive, greedy, and seeded random search;
//! * [`pareto`] — non-dominated filtering;
//! * [`otsu`] — the case-study binding: profiles measured from the real
//!   kernels/HLS reports, reproducing (and extending) Table I's four
//!   hand-picked points.

pub mod model;
pub mod otsu;
pub mod pareto;
pub mod search;

pub use model::{ChainModel, DesignPoint, TaskProfile};
pub use otsu::{otsu_chain_model, otsu_chain_model_cached, OtsuChainProfile};
pub use pareto::pareto_front;
pub use search::{exhaustive, exhaustive_parallel, greedy, random_search};
