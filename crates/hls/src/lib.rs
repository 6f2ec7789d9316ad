//! # accelsoc-hls — High-Level Synthesis simulator
//!
//! Stand-in for Xilinx Vivado HLS, exercising the same contract the paper's
//! DSL relies on: *give me a synthesizable kernel plus interface
//! directives; I return an RTL core with standard AXI interfaces and a
//! report of its latency, initiation interval and resource usage.*
//!
//! Pipeline (mirrors a real HLS flow):
//!
//! 1. **DFG construction** ([`dfg`]) — lower each straight-line region of
//!    the kernel into an operation dataflow graph with data, memory and
//!    stream-order dependences (if-conversion turns control flow into
//!    predicated ops and muxes).
//! 2. **Scheduling** ([`schedule`]) — ASAP / ALAP and resource-constrained
//!    list scheduling; loop regions are scheduled hierarchically.
//! 3. **Pipelining** ([`pipeline`]) — initiation-interval computation from
//!    resource pressure (ResMII) and loop-carried memory recurrences
//!    (RecMII) for loops marked `pipeline`.
//! 4. **Binding** ([`bind`]) — functional-unit allocation (max concurrent
//!    uses per class) and register allocation from value lifetimes.
//! 5. **Interface synthesis** ([`interface`]) — scalar parameters become an
//!    AXI-Lite register file (control register layout following the Vivado
//!    HLS `s_axilite` convention); stream parameters become AXI-Stream
//!    ports.
//! 6. **RTL + reports** ([`rtl`], [`report`]) — a netlist with Verilog
//!    emission, and a synthesis report with the latency/II/resource
//!    numbers the integration flow and the platform simulator consume.

pub mod bind;
pub mod cache;
pub mod dfg;
pub mod directives;
pub mod fds;
pub mod interface;
pub mod pipeline;
pub mod project;
pub mod report;
pub mod resource;
pub mod rtl;
pub mod schedule;
pub mod techlib;
pub mod transform;

pub use cache::{CacheKey, CacheTier, HlsCache, CACHE_FORMAT_VERSION};
pub use dfg::{DfgError, OpClass, OpNode, RegionDfg};
pub use interface::{AxiLiteRegister, CoreInterface, StreamPort};
pub use project::{HlsOptions, HlsResult};
pub use report::HlsReport;
pub use resource::ResourceEstimate;
pub use techlib::TechLib;
