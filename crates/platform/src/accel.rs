//! PL accelerator instances: HLS-timed, lane-VM-evaluated.
//!
//! An instance holds its kernel IR, HLS report and execution unit behind
//! `Arc`s: a flow engine builds one board per job, and every board's
//! instance of a kernel points at the engine's single copy instead of
//! cloning the IR tree or the report.

use accelsoc_hls::report::HlsReport;
use accelsoc_kernel::interp::{ExecError, StreamBundle};
use accelsoc_kernel::ir::Kernel;
use accelsoc_kernel::ExecUnit;
use std::collections::HashMap;
use std::sync::Arc;

/// One invocation's outcome: (scalar outputs, fabric cycles consumed).
pub type Invocation = Result<(HashMap<String, i64>, u64), ExecError>;

/// One accelerator placed in the PL. Its function is the kernel's
/// execution unit — invocations run as lane groups on the lane VM (one
/// lane per board, [`AccelInstance::invoke_batch`]), each lane
/// bit-identical to the reference interpreter; its timing is
/// derived from the HLS report: a streaming invocation processing `n`
/// tokens costs `startup + ii_max * n` fabric cycles, where `ii_max` is
/// the worst initiation interval among the kernel's pipelined loops (1
/// if none — fully pipelined) and `startup` covers control and pipeline
/// fill.
#[derive(Debug, Clone)]
pub struct AccelInstance {
    /// The kernel IR, shared with the flow engine that registered it.
    pub kernel: Arc<Kernel>,
    /// The HLS report, shared with the flow run that produced it.
    pub report: Arc<HlsReport>,
    /// The kernel's execution unit; the flow engine shares one across
    /// every instance of the same kernel, so each kernel compiles once
    /// per engine, not per board.
    unit: Arc<ExecUnit>,
    /// Fabric cycles of fixed startup per invocation.
    pub startup_cycles: u64,
    /// Scalar register state (AXI-Lite visible arguments).
    pub scalar_args: HashMap<String, i64>,
    /// Argument names [`AccelInstance::clear_args`] took out of
    /// `scalar_args`, kept so that setting them again allocates nothing.
    spare_names: Vec<String>,
}

impl AccelInstance {
    /// Standalone constructor: compiles the kernel here. Prefer
    /// [`AccelInstance::with_unit`] when a flow engine already holds
    /// the kernel and its execution unit.
    pub fn new(kernel: Kernel, report: Arc<HlsReport>) -> Self {
        let unit = Arc::new(ExecUnit::new(&kernel));
        AccelInstance::with_unit(Arc::new(kernel), report, unit)
    }

    /// Construct around a kernel, report and execution unit handed out
    /// by the flow engine; all three are shared, not copied.
    pub fn with_unit(kernel: Arc<Kernel>, report: Arc<HlsReport>, unit: Arc<ExecUnit>) -> Self {
        AccelInstance {
            kernel,
            report,
            unit,
            startup_cycles: 40,
            scalar_args: HashMap::new(),
            spare_names: Vec::new(),
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
        if let Some(v) = self.scalar_args.get_mut(name) {
            *v = value;
            return;
        }
        let key = match self.spare_names.pop() {
            Some(mut key) => {
                key.clear();
                key.push_str(name);
                key
            }
            None => name.to_string(),
        };
        self.scalar_args.insert(key, value);
    }

    /// Clear every argument register, as on a newly placed instance;
    /// the names are kept for the next [`AccelInstance::set_arg`].
    pub fn clear_args(&mut self) {
        self.spare_names
            .extend(self.scalar_args.drain().map(|(name, _)| name));
    }

    /// Whether `other` runs on the same kernel, report and execution
    /// unit (the same `Arc`s), as every board a flow engine builds from
    /// one flow run does: such instances can fire as one lane group.
    pub fn is_twin(&self, other: &AccelInstance) -> bool {
        Arc::ptr_eq(&self.kernel, &other.kernel)
            && Arc::ptr_eq(&self.report, &other.report)
            && Arc::ptr_eq(&self.unit, &other.unit)
    }

    /// Fire one invocation: consume/produce stream tokens on the lane
    /// VM. Returns (scalar outputs, fabric cycles consumed). A one-lane
    /// [`AccelInstance::invoke_batch`].
    pub fn invoke(&self, streams: &mut StreamBundle) -> Invocation {
        AccelInstance::invoke_batch(&[self], std::slice::from_mut(streams))
            .pop()
            .expect("a one-lane batch has one outcome")
    }

    /// Fire `lanes[l]` on `streams[l]` for every `l`, as one lane-VM
    /// batch of their shared execution unit (the lanes must be
    /// [twins](AccelInstance::is_twin)). Each lane reads its own scalar
    /// arguments, and its cycles come from its own token counts and
    /// timing parameters, so lane `l`'s outcome equals
    /// `lanes[l].invoke(&mut streams[l])`.
    pub fn invoke_batch(lanes: &[&AccelInstance], streams: &mut [StreamBundle]) -> Vec<Invocation> {
        assert_eq!(lanes.len(), streams.len(), "one stream bundle per lane");
        let Some(first) = lanes.first() else {
            return Vec::new();
        };
        debug_assert!(lanes.iter().all(|a| Arc::ptr_eq(&a.unit, &first.unit)));
        let in_tokens: Vec<u64> = streams.iter().map(StreamBundle::input_tokens).collect();
        let scalars: Vec<&HashMap<String, i64>> = lanes.iter().map(|a| &a.scalar_args).collect();
        let outcome = first.unit.run_batch(&scalars, streams);
        outcome
            .lanes
            .into_iter()
            .zip(lanes.iter().zip(streams.iter().zip(in_tokens)))
            .map(|(res, (a, (bundle, in_tokens)))| {
                let outcome = res?;
                // Timing uses whichever is larger: tokens consumed or
                // produced — source-style kernels are paced by their
                // output stream.
                let cycles = a.cycles_for_tokens(in_tokens.max(bundle.output_tokens()));
                Ok((outcome.scalar_outputs, cycles))
            })
            .collect()
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
