//! # accelsoc-axi — the DMA side of the AXI interconnect
//!
//! The paper's flow turns every `link` into an AXI-Stream connection,
//! with an AXI DMA engine on each `'soc` end reading and writing shared
//! DRAM through the Zynq HP ports, and every `connect` into AXI-Lite
//! control. This crate holds the part of that interconnect that carries
//! data:
//!
//! * [`dma`] — the DMA engine: descriptor checks, little-endian beat
//!   packing and the per-transfer cycle model. A streaming phase moves
//!   each buffer whole, with [`dma::mm2s`] (DRAM to stream tokens) and
//!   [`dma::s2mm`] (stream tokens to DRAM);
//! * [`protocol`] — the [`MemoryPort`] contract the DMA reads and writes
//!   through, and [`protocol::VecMemory`], the paged store behind board
//!   DRAM.
//!
//! Stream timing — bounded FIFOs, backpressure, HP-port contention — is
//! modelled once, by the co-simulation in `accelsoc-platform`, from the
//! token counts a phase moved. AXI-Lite control is charged there too, by
//! `Board::invoke_lite`, at a fixed cost per transaction.

pub mod dma;
pub mod protocol;

pub use dma::{DmaDescriptor, DmaEngine, DmaError};
pub use protocol::{MemError, MemoryPort};
