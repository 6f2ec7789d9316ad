//! The HLS project driver: one call takes a kernel through DFG lowering,
//! scheduling, binding, interface synthesis, resource estimation, and RTL
//! emission — the work Vivado HLS performs when the paper's DSL executes a
//! `tg node ... end` element.

use crate::bind::{bind, Binding};
use crate::dfg::{lower, DfgError, Region, RegionItem};
use crate::directives::DirectivesFile;
use crate::interface::synthesize;
use crate::report::HlsReport;
use crate::resource::ResourceEstimate;
use crate::rtl::RtlModule;
use crate::schedule::{list_schedule, schedule_region, ResourceConstraints};
use crate::techlib::{FuClass, TechLib};
use accelsoc_kernel::ir::Kernel;
use accelsoc_kernel::verify::{verify, VerifyError};
use accelsoc_observe::{FlowEvent, FlowObserver};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Options controlling an HLS run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HlsOptions {
    pub lib: TechLib,
    pub constraints: ResourceConstraints,
}

impl Default for HlsOptions {
    fn default() -> Self {
        HlsOptions {
            lib: TechLib::default(),
            constraints: ResourceConstraints::vivado_like(),
        }
    }
}

/// Everything produced for one core.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HlsResult {
    /// The synthesis report, shared: every board a flow engine builds
    /// from this result points at it (it serializes as the report).
    pub report: Arc<HlsReport>,
    pub rtl: RtlModule,
    pub verilog: String,
    pub directives_tcl: String,
    pub region: Region,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HlsError {
    Verify(VerifyError),
    Lower(DfgError),
}

impl fmt::Display for HlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlsError::Verify(e) => write!(f, "kernel verification failed: {e}"),
            HlsError::Lower(e) => write!(f, "lowering failed: {e}"),
        }
    }
}

impl std::error::Error for HlsError {}

/// Synthesize one kernel into a complete [`HlsResult`].
pub fn synthesize_kernel(kernel: &Kernel, options: &HlsOptions) -> Result<HlsResult, HlsError> {
    synthesize_kernel_observed(kernel, options, &accelsoc_observe::NullObserver)
}

/// [`synthesize_kernel`], reporting the resulting schedule/resource
/// statistics as a [`FlowEvent::HlsKernelSynthesized`].
pub fn synthesize_kernel_observed(
    kernel: &Kernel,
    options: &HlsOptions,
    observer: &dyn FlowObserver,
) -> Result<HlsResult, HlsError> {
    verify(kernel).map_err(HlsError::Verify)?;
    let lib = &options.lib;
    let region = lower(kernel).map_err(HlsError::Lower)?;
    let rs = schedule_region(&region, lib, &options.constraints);

    // Bind each straight-line segment; the datapath instantiates the
    // *peak* unit requirement per class across segments (units are shared
    // between temporally disjoint regions by the FSM).
    let mut seg_bindings: Vec<Binding> = Vec::new();
    for seg in region.segments() {
        let sched = list_schedule(seg, lib, &options.constraints);
        seg_bindings.push(bind(seg, &sched, lib));
    }
    let mut fu_units: std::collections::HashMap<FuClass, Vec<u8>> =
        std::collections::HashMap::new();
    for b in &seg_bindings {
        for (class, widths) in &b.units {
            let entry = fu_units.entry(*class).or_default();
            if widths.len() > entry.len() {
                *entry = widths.clone();
            } else {
                // Keep widest widths.
                for (i, w) in widths.iter().enumerate() {
                    entry[i] = entry[i].max(*w);
                }
            }
        }
    }

    // --- resource estimation ---
    let mut resources = ResourceEstimate::ZERO;
    for (class, widths) in &fu_units {
        for w in widths {
            let cost = lib.op_cost(representative_op(*class), *w);
            resources += ResourceEstimate::new(cost.lut, cost.ff, 0, cost.dsp);
        }
    }
    // Registers from value lifetimes.
    resources.ff += rs.register_bits as u32;
    // Local memories.
    let mut memories = Vec::new();
    for l in &kernel.locals {
        if let Some(len) = l.len {
            let bits = len as u64 * l.ty.bits as u64;
            let (bram, lut) = lib.memory_cost(bits);
            resources.bram18 += bram;
            resources.lut += lut;
            memories.push((l.name.clone(), bits));
        }
    }
    // Control FSM.
    resources += lib.control_overhead(rs.fsm_states);
    // Interface adapters.
    let iface = synthesize(kernel);
    resources += iface.adapter_cost();

    // --- timing model ---
    // Base fabric delay plus width- and operator-dependent penalties.
    let max_width = fu_units.values().flatten().copied().max().unwrap_or(8) as f64;
    let has_div = fu_units.contains_key(&FuClass::Div);
    let clock_estimate_ns =
        (4.8 + 0.035 * max_width + if has_div { 1.5 } else { 0.0 }).min(lib.clock_ns);

    // --- tool-time model (for Fig. 9): Vivado HLS wall seconds ---
    let total_ops = region.total_ops() as f64;
    let loops = count_loops(&region) as f64;
    let modeled_tool_seconds = 18.0 + 1.1 * total_ops + 6.0 * loops;

    let report = HlsReport {
        kernel: kernel.name.clone(),
        latency: rs.latency,
        loop_iis: rs.loop_iis.clone(),
        resources,
        interface: iface.clone(),
        clock_estimate_ns,
        modeled_tool_seconds,
    };
    observer.on_event(&FlowEvent::HlsKernelSynthesized {
        kernel: report.kernel.clone(),
        latency: report.latency,
        pipelined_loops: report.loop_iis.len(),
        lut: report.resources.lut,
        ff: report.resources.ff,
        bram18: report.resources.bram18,
        dsp: report.resources.dsp,
        clock_estimate_ns: report.clock_estimate_ns,
        modeled_tool_seconds: report.modeled_tool_seconds,
    });
    let rtl = RtlModule::from_parts(
        &kernel.name,
        &iface,
        &seg_bindings,
        &memories,
        rs.fsm_states,
    );
    let verilog = rtl.to_verilog();
    let directives_tcl = DirectivesFile::for_kernel(kernel).render();
    Ok(HlsResult {
        report: Arc::new(report),
        rtl,
        verilog,
        directives_tcl,
        region,
    })
}

fn representative_op(class: FuClass) -> crate::dfg::OpClass {
    use crate::dfg::OpClass::*;
    match class {
        FuClass::AddSub => Add,
        FuClass::Mul => Mul,
        FuClass::Div => Div,
        FuClass::Compare => Compare,
        FuClass::Bitwise => Bit,
        FuClass::Mux => Mux,
        FuClass::MemPort => MemRead,
        FuClass::StreamPort => StreamRead,
    }
}

fn count_loops(region: &Region) -> usize {
    region
        .items
        .iter()
        .map(|i| match i {
            RegionItem::Loop { body, .. } => 1 + count_loops(body),
            RegionItem::Straight(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelsoc_kernel::builder::*;
    use accelsoc_kernel::types::Ty;

    fn adder() -> Kernel {
        KernelBuilder::new("add")
            .scalar_in("a", Ty::U32)
            .scalar_in("b", Ty::U32)
            .scalar_out("ret", Ty::U32)
            .push(assign("ret", add(var("a"), var("b"))))
            .build()
    }

    fn hist() -> Kernel {
        KernelBuilder::new("histogram")
            .scalar_in("n", Ty::U32)
            .stream_in("px", Ty::U8)
            .stream_out("hist", Ty::U32)
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
                for_pipelined(
                    "j",
                    c(0),
                    c(256),
                    vec![write("hist", idx("bins", var("j")))],
                ),
            ])
            .build()
    }

    fn divider_heavy() -> Kernel {
        KernelBuilder::new("otsu")
            .scalar_in("total", Ty::U32)
            .scalar_out("thr", Ty::U32)
            .local("acc", Ty::U48)
            .body(vec![
                assign("acc", mul(var("total"), var("total"))),
                assign("thr", div(var("acc"), add(var("total"), c(1)))),
            ])
            .build()
    }

    #[test]
    fn adder_synthesizes_small_and_fast() {
        let r = synthesize_kernel(&adder(), &HlsOptions::default()).unwrap();
        assert!(r.report.latency <= 4);
        assert_eq!(r.report.resources.dsp, 0);
        assert_eq!(r.report.resources.bram18, 0);
        assert!(r.report.resources.lut > 100, "interface overhead present");
        assert!(r.verilog.contains("module add"));
        assert!(r.directives_tcl.contains("s_axilite"));
    }

    #[test]
    fn histogram_uses_bram_and_no_dsp() {
        let r = synthesize_kernel(&hist(), &HlsOptions::default()).unwrap();
        // 256 x 32-bit = 8 Kib -> 1 RAMB18.
        assert_eq!(r.report.resources.bram18, 1);
        assert_eq!(r.report.resources.dsp, 0);
        // Histogram recurrence forces II >= 3 on the first loop.
        let ii = r.report.loop_iis.iter().map(|(_, ii)| *ii).max().unwrap();
        assert!(ii >= 3, "II = {ii}");
    }

    #[test]
    fn divider_kernel_uses_dsp_for_mul_and_fabric_for_div() {
        let r = synthesize_kernel(&divider_heavy(), &HlsOptions::default()).unwrap();
        assert!(r.report.resources.dsp >= 1, "multiply should claim DSP");
        // The 48-bit divider dominates LUTs.
        let adder_luts = synthesize_kernel(&adder(), &HlsOptions::default())
            .unwrap()
            .report
            .resources
            .lut;
        assert!(r.report.resources.lut > adder_luts);
        // 32-bit operands feed the divider: >= 32 cycles of iteration.
        assert!(r.report.latency >= 32, "iterative divide is long-latency");
    }

    #[test]
    fn malformed_kernel_rejected() {
        let k = Kernel {
            name: "broken".into(),
            params: vec![],
            locals: vec![],
            body: vec![],
        };
        let err = synthesize_kernel(&k, &HlsOptions::default()).unwrap_err();
        assert!(matches!(err, HlsError::Verify(_)));
    }

    #[test]
    fn observed_synthesis_reports_kernel_stats() {
        use accelsoc_observe::{CollectObserver, FlowEvent};
        let collect = CollectObserver::new();
        for k in [adder(), hist()] {
            synthesize_kernel_observed(&k, &HlsOptions::default(), &collect).unwrap();
        }
        let names: Vec<String> = collect
            .events()
            .iter()
            .filter_map(|e| match e {
                FlowEvent::HlsKernelSynthesized {
                    kernel, latency, ..
                } => {
                    assert!(*latency > 0);
                    Some(kernel.clone())
                }
                _ => None,
            })
            .collect();
        assert_eq!(names, ["add", "histogram"]);
    }

    #[test]
    fn tool_time_model_grows_with_kernel_size() {
        let small = synthesize_kernel(&adder(), &HlsOptions::default()).unwrap();
        let big = synthesize_kernel(&hist(), &HlsOptions::default()).unwrap();
        assert!(big.report.modeled_tool_seconds > small.report.modeled_tool_seconds);
    }

    #[test]
    fn clock_estimate_within_target() {
        for k in [adder(), hist(), divider_heavy()] {
            let r = synthesize_kernel(&k, &HlsOptions::default()).unwrap();
            assert!(r.report.clock_estimate_ns <= 10.0);
            assert!(r.report.clock_estimate_ns > 0.0);
        }
    }
}
