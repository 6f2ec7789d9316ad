//! # accelsoc-platform — simulated ZedBoard
//!
//! The paper evaluates on an AVNET ZedBoard (Xilinx Zynq-7020: dual-core
//! ARM Cortex-A9 "PS" + Artix-7-class programmable logic "PL", joined by
//! AXI interconnects and high-performance DMA ports into shared DRAM). We
//! have no board, so this crate simulates one at the granularity the
//! paper's flow needs:
//!
//! * [`memory::Dram`] — shared DDR3 contents, paged so that a board
//!   costs only the pages it writes (DMA traffic is timed by [`cosim`]);
//! * [`cpu::Cpu`] — the ARM PS as a cost model over kernel execution
//!   statistics (software tasks execute on the kernel lane VM; the
//!   model converts operation counts into cycles);
//! * [`accel::AccelInstance`] — a PL accelerator whose *function* is the
//!   kernel's lane-VM execution unit and whose *timing* comes from its
//!   HLS report (initiation interval × tokens + startup);
//! * [`board::Board`] — the assembled system: AXI-Stream topology, DMA
//!   engines, DRAM, accelerators; it can execute memory-mapped core
//!   invocations (AXI-Lite control at a fixed cost per transaction) and
//!   streaming phases (each DMA buffer moved whole) functionally and
//!   return cycle-accurate-ish statistics;
//! * [`cosim`] — the co-scheduled bounded-FIFO cycle simulation behind
//!   streaming-phase timing: every DMA endpoint and accelerator steps one
//!   PL cycle at a time over integer-occupancy FIFOs, surfacing
//!   backpressure, starvation and HP-port contention stalls; its
//!   [`cosim::PhaseMemo`] simulates each distinct phase shape once;
//! * [`sim`] — the integer-picosecond timebase and the one
//!   deterministic event [`sim::Calendar`], total order `(ps, tie, seq)`,
//!   that every discrete-event simulator in the workspace runs on;
//! * [`multiboard`] — whole-system co-simulation of several boards at
//!   once, joined by serial stream links timed in closed form, on one
//!   `Calendar` keyed `(ps, board, rank, seq)` (used by
//!   `accelsoc-partition` when a design overflows a single device).
//!
//! Clocks: the PL runs at 100 MHz (10 ns/cycle), the PS at 666.7 MHz
//! (1.5 ns/cycle), matching ZedBoard defaults. All times are reported in
//! nanoseconds so the two domains compose.

pub mod accel;
pub mod board;
pub mod cosim;
pub mod cpu;
pub mod memory;
pub mod multiboard;
pub mod sim;
pub mod trace;

pub use accel::AccelInstance;
pub use board::{Board, BoardError, PhaseStats};
pub use cosim::{CosimResult, PhaseMemo};
pub use cpu::Cpu;
pub use memory::Dram;
pub use multiboard::{
    BoardStats, LinkStats, MbLink, MbNode, MultiBoardError, MultiBoardReport, MultiBoardSpec,
    NodeTrace,
};
pub use trace::{trace_phase, Trace, TraceError};

/// PL fabric clock period in nanoseconds (100 MHz).
pub const PL_CLK_NS: f64 = 10.0;
/// PS (ARM) clock period in nanoseconds (666.7 MHz).
pub const PS_CLK_NS: f64 = 1.5;
