//! # accelsoc-apps — the paper's applications
//!
//! * [`image`] — grayscale/RGB image types, synthetic scene generation,
//!   and PGM I/O (the `readImage`/`writeImage` tasks of the case study);
//! * [`kernels`] — kernel-IR implementations of every hardware-mappable
//!   task: the Otsu set (`grayScale`, `computeHistogram`,
//!   `halfProbability`, `segment`, matching Listing 4's node names) and
//!   the Fig. 4 demo set (`ADD`, `MUL`, `GAUSS`, `EDGE`);
//! * [`otsu`] — the software reference implementation of the Otsu filter
//!   and the application runner that executes any of the four
//!   architectures end to end (software tasks on the simulated CPU,
//!   hardware phases on the simulated board);
//! * [`archs`] — the four DSL architecture descriptions of Table I and a
//!   preconfigured [`accelsoc_core::flow::FlowEngine`] for them;
//! * [`batch`] — batched throughput runs: a stream of images simulated on
//!   independent boards across host threads, with a deterministic
//!   latency/throughput report;
//! * [`demo`] — the Fig. 4 example system (ADD/MULT on AXI-Lite, a
//!   GAUSS→EDGE stream pipeline).

pub mod archs;
pub mod batch;
pub mod demo;
pub mod image;
pub mod kernels;
pub mod otsu;

pub use archs::{arch_dsl_source, otsu_flow_engine, Arch};
pub use batch::{
    image_stream, par_map, par_map_with, run_batch, run_batch_lanes, BatchReport, DEFAULT_LANES,
};
pub use image::{GrayImage, RgbImage};
pub use otsu::{
    otsu_reference, run_application, run_application_group, run_application_with, AppConfig,
    AppRun, GroupExec, GroupLatencies, GroupRunner,
};
