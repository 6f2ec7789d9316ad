//! [`ExecUnit`]: the one handle hot paths hold to execute a kernel.
//!
//! A kernel has one compiled execution tier plus one oracle,
//! bit-identical by contract:
//!
//! 1. the **batch-lane VM** ([`crate::lanes`]) over the compiled
//!    bytecode ([`crate::compile`]), which runs K invocations through one
//!    decoded instruction stream; a single invocation
//!    ([`CompiledKernel::run`], [`crate::vm`]) is a group of one lane;
//! 2. the tree-walking **interpreter** ([`crate::interp`]) — the
//!    differential oracle, never on a hot path.
//!
//! `ExecUnit` compiles once and runs batched invocations as one lane
//! group, single invocations as a group of one lane. The flow engine
//! keeps one `Arc<ExecUnit>` beside each registered kernel, so
//! compilation is paid once per engine per kernel.

use crate::compile::CompiledKernel;
use crate::interp::{ExecError, ExecOutcome, StreamBundle};
use crate::ir::Kernel;
use crate::lanes::BatchOutcome;
use std::borrow::Borrow;
use std::collections::HashMap;

/// A compiled kernel; the unit the flow engine hands out and every
/// runtime consumer executes through.
#[derive(Debug)]
pub struct ExecUnit {
    compiled: CompiledKernel,
}

impl ExecUnit {
    /// Compile a kernel into an execution unit.
    pub fn new(kernel: &Kernel) -> ExecUnit {
        ExecUnit {
            compiled: CompiledKernel::compile(kernel),
        }
    }

    /// Single invocation: [`CompiledKernel::run`], a one-lane group on
    /// the lane VM.
    pub fn run(
        &self,
        scalar_inputs: &HashMap<String, i64>,
        streams: &mut StreamBundle,
    ) -> Result<ExecOutcome, ExecError> {
        self.compiled.run(scalar_inputs, streams)
    }

    /// Batched invocation on the lane VM: one decoded instruction
    /// stream over all lanes. See [`CompiledKernel::run_batch`]; each
    /// lane's scalar inputs may be a map or a reference to one.
    pub fn run_batch<S: Borrow<HashMap<String, i64>>>(
        &self,
        scalar_inputs: &[S],
        streams: &mut [StreamBundle],
    ) -> BatchOutcome {
        self.compiled.run_batch(scalar_inputs, streams)
    }
}
