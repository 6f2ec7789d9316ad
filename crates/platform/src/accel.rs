//! PL accelerator instances: HLS-timed, lane-VM-evaluated.
//!
//! An instance holds its kernel IR and execution unit behind `Arc`s: a
//! flow engine builds one board per job, and every board's instance of
//! a kernel points at the engine's single copy instead of cloning the
//! IR tree.

use accelsoc_hls::report::HlsReport;
use accelsoc_kernel::interp::{ExecError, StreamBundle};
use accelsoc_kernel::ir::Kernel;
use accelsoc_kernel::ExecUnit;
use std::collections::HashMap;
use std::sync::Arc;

/// One accelerator placed in the PL. Its function is the kernel's
/// execution unit — each invocation runs as a one-lane group on the
/// lane VM, bit-identical to the reference interpreter; its timing is
/// derived from the HLS report: a streaming invocation processing `n`
/// tokens costs `startup + ii_max * n` fabric cycles, where `ii_max` is
/// the worst initiation interval among the kernel's pipelined loops (1
/// if none — fully pipelined) and `startup` covers control and pipeline
/// fill.
#[derive(Debug, Clone)]
pub struct AccelInstance {
    /// The kernel IR, shared with the flow engine that registered it.
    pub kernel: Arc<Kernel>,
    pub report: HlsReport,
    /// The kernel's execution unit; the flow engine shares one across
    /// every instance of the same kernel, so each kernel compiles once
    /// per engine, not per board.
    unit: Arc<ExecUnit>,
    /// Fabric cycles of fixed startup per invocation.
    pub startup_cycles: u64,
    /// Scalar register state (AXI-Lite visible arguments).
    pub scalar_args: HashMap<String, i64>,
    /// Cumulative busy fabric cycles.
    pub busy_cycles: u64,
    /// Number of completed invocations.
    pub invocations: u64,
}

impl AccelInstance {
    /// Standalone constructor: compiles the kernel here. Prefer
    /// [`AccelInstance::with_unit`] when a flow engine already holds
    /// the kernel and its execution unit.
    pub fn new(kernel: Kernel, report: HlsReport) -> Self {
        let unit = Arc::new(ExecUnit::new(&kernel));
        AccelInstance::with_unit(Arc::new(kernel), report, unit)
    }

    /// Construct around a kernel and execution unit handed out by the
    /// flow engine; both are shared, not copied.
    pub fn with_unit(kernel: Arc<Kernel>, report: HlsReport, unit: Arc<ExecUnit>) -> Self {
        AccelInstance {
            kernel,
            report,
            unit,
            startup_cycles: 40,
            scalar_args: HashMap::new(),
            busy_cycles: 0,
            invocations: 0,
        }
    }

    /// Worst II among the core's pipelined loops (1 if none recorded).
    pub fn ii_max(&self) -> u64 {
        self.report
            .loop_iis
            .iter()
            .map(|(_, ii)| *ii as u64)
            .max()
            .unwrap_or(1)
    }

    /// Fabric cycles to process `tokens` input tokens in one invocation.
    pub fn cycles_for_tokens(&self, tokens: u64) -> u64 {
        self.startup_cycles + self.ii_max() * tokens
    }

    /// Set a scalar argument (models the host writing the AXI-Lite
    /// argument register).
    pub fn set_arg(&mut self, name: &str, value: i64) {
        self.scalar_args.insert(name.to_string(), value);
    }

    /// Fire one invocation: consume/produce stream tokens on the lane
    /// VM. Returns (scalar outputs, fabric cycles consumed).
    pub fn invoke(
        &mut self,
        streams: &mut StreamBundle,
    ) -> Result<(HashMap<String, i64>, u64), ExecError> {
        let in_tokens: u64 = streams.input_tokens();
        let outcome = self.unit.run(&self.scalar_args, streams)?;
        // Timing uses whichever is larger: tokens consumed or produced —
        // source-style kernels are paced by their output stream.
        let out_tokens: u64 = streams.output_tokens();
        let cycles = self.cycles_for_tokens(in_tokens.max(out_tokens));
        self.busy_cycles += cycles;
        self.invocations += 1;
        Ok((outcome.scalar_outputs, cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelsoc_hls::project::{synthesize_kernel, HlsOptions};
    use accelsoc_kernel::builder::*;
    use accelsoc_kernel::types::Ty;

    fn copy_accel() -> AccelInstance {
        let k = KernelBuilder::new("copy")
            .scalar_in("n", Ty::U32)
            .stream_in("in", Ty::U8)
            .stream_out("out", Ty::U8)
            .push(for_pipelined(
                "i",
                c(0),
                var("n"),
                vec![write("out", read("in"))],
            ))
            .build();
        let r = synthesize_kernel(&k, &HlsOptions::default()).unwrap();
        AccelInstance::new(k, r.report)
    }

    #[test]
    fn invoke_moves_tokens_and_accrues_cycles() {
        let mut a = copy_accel();
        a.set_arg("n", 8);
        let mut s = StreamBundle::new();
        s.feed("in", 0..8);
        let (outs, cycles) = a.invoke(&mut s).unwrap();
        assert!(outs.is_empty());
        assert_eq!(s.output("out"), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(cycles, a.startup_cycles + a.ii_max() * 8);
        assert_eq!(a.busy_cycles, cycles);
        assert_eq!(a.invocations, 1);
    }

    #[test]
    fn fully_pipelined_copy_has_ii_one() {
        let a = copy_accel();
        assert_eq!(a.ii_max(), 1);
        assert_eq!(a.cycles_for_tokens(1000), a.startup_cycles + 1000);
    }

    #[test]
    fn histogram_accel_ii_slows_per_token_rate() {
        let k = KernelBuilder::new("hist")
            .scalar_in("n", Ty::U32)
            .stream_in("px", Ty::U8)
            .stream_out("h", Ty::U32)
            .array("bins", Ty::U32, 256)
            .local("v", Ty::U8)
            .body(vec![
                for_pipelined(
                    "i",
                    c(0),
                    var("n"),
                    vec![
                        assign("v", read("px")),
                        store("bins", var("v"), add(idx("bins", var("v")), c(1))),
                    ],
                ),
                for_pipelined("j", c(0), c(256), vec![write("h", idx("bins", var("j")))]),
            ])
            .build();
        let r = synthesize_kernel(&k, &HlsOptions::default()).unwrap();
        let a = AccelInstance::new(k, r.report);
        assert!(a.ii_max() >= 3, "histogram RMW recurrence");
    }

    #[test]
    fn underflow_propagates_as_error() {
        let mut a = copy_accel();
        a.set_arg("n", 4);
        let mut s = StreamBundle::new();
        s.feed("in", [1, 2]); // fewer than n
        assert!(a.invoke(&mut s).is_err());
    }
}
