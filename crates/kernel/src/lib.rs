//! # accelsoc-kernel — kernel intermediate representation
//!
//! The paper feeds each hardware task to Vivado HLS as synthesizable C/C++.
//! We do not have Vivado HLS, so this crate defines the equivalent input: a
//! small, typed, structured kernel IR with
//!
//! * scalar parameters (mapped to AXI-Lite registers by interface
//!   synthesis),
//! * stream parameters (mapped to AXI-Stream ports),
//! * local scalars and fixed-size local arrays (mapped to LUTRAM/BRAM),
//! * structured control flow (`for` loops with optional pipelining, `if`),
//! * integer arithmetic with declared bit-widths (wrap-around semantics on
//!   assignment, exactly like `ap_int`/`ap_uint`).
//!
//! Two consumers share this IR:
//!
//! 1. the **interpreter** ([`interp`]) — the analogue of HLS "C simulation"
//!    and the functional model executed by the platform simulator, and
//! 2. the **HLS simulator** (`accelsoc-hls`) — which schedules and binds
//!    the operations to estimate latency, II and resources and to emit RTL.
//!
//! Hot paths execute through a third consumer: the bytecode **compiler**
//! ([`compile`]) + batch-lane **VM** ([`lanes`]), a drop-in replacement
//! for the interpreter that lowers the IR once and then runs a flat op
//! stream with dense indices over K invocations at once, and each
//! straight-line counted loop a chunk of iterations per op dispatch,
//! instead of walking the tree with string lookups. A single invocation
//! ([`CompiledKernel::run`], [`vm`]) is a batch of one lane; there is no
//! separate scalar loop. The interpreter remains the differential oracle
//! (see `tests/prop_vm.rs` and `tests/prop_lanes.rs`).

pub mod builder;
pub mod compile;
pub mod exec;
pub mod interp;
pub mod ir;
pub mod lanes;
pub mod types;
pub mod verify;
pub mod vm;

pub use builder::KernelBuilder;
pub use compile::CompiledKernel;
pub use exec::ExecUnit;
pub use interp::{ExecError, ExecStats, Interpreter, StreamBundle};
pub use ir::{BinOp, Expr, Kernel, LValue, Param, ParamKind, Stmt, UnOp};
pub use lanes::BatchOutcome;
pub use types::Ty;
pub use verify::VerifyError;
