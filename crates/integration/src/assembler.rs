//! The system assembler — the automation at the heart of the paper.
//!
//! Given the elaborated architecture (cores with synthesized interfaces,
//! plus the DSL's `connect`/`link` edges), this module performs the steps
//! of Section IV.A:
//!
//! 1. instantiate the Zynq PS and enable its HP slave ports for DMA,
//! 2. instantiate DMA engines for every stream link touching `'soc`
//!    (policy-selectable: one DMA per link, as Xilinx SDSoC does, or a
//!    single shared DMA channel pair, the paper's preferred scheme — §VII),
//! 3. instantiate AXI interconnects for the control plane (PS GP0 → all
//!    AXI-Lite slaves) and the data plane (DMAs → PS HP0),
//! 4. wire every AXI-Stream link,
//! 5. allocate the address map.

use crate::blockdesign::{BlockDesign, Cell, CellKind, NetKind};
use accelsoc_hls::interface::StreamDir;
use accelsoc_hls::report::HlsReport;
use std::fmt;

/// One synthesized core entering integration.
#[derive(Debug, Clone)]
pub struct CoreSpec {
    pub report: HlsReport,
}

/// A link endpoint: the system (`'soc` in the DSL) or a named core port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocEndpoint {
    Soc,
    Core { core: String, port: String },
}

/// An AXI-Stream link (the DSL's `tg link A to B end`).
#[derive(Debug, Clone)]
pub struct LinkSpec {
    pub from: SocEndpoint,
    pub to: SocEndpoint,
}

/// DMA instantiation policy (§VII comparison against SDSoC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DmaPolicy {
    /// One DMA engine per `'soc`-touching link — what Xilinx SDSoC does
    /// for every vector parameter.
    PerSocLink,
    /// A single DMA engine whose MM2S/S2MM channels are shared across all
    /// `'soc` links — the paper's preferred, resource-lean configuration.
    #[default]
    SharedChannel,
}

/// The elaborated architecture handed to `assemble`.
#[derive(Debug, Clone, Default)]
pub struct ArchSpec {
    pub name: String,
    pub cores: Vec<CoreSpec>,
    pub stream_links: Vec<LinkSpec>,
    /// Cores attached to the control bus with the DSL's `tg connect`.
    /// (All cores with scalar registers get a control connection anyway;
    /// this records the explicit DSL statements.)
    pub lite_cores: Vec<String>,
    pub dma_policy: DmaPolicy,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleError {
    UnknownCore(String),
    UnknownPort {
        core: String,
        port: String,
    },
    DirectionMismatch {
        core: String,
        port: String,
        expected: &'static str,
    },
    WidthMismatch {
        from: String,
        to: String,
        from_bits: u32,
        to_bits: u32,
    },
    PortAlreadyLinked {
        core: String,
        port: String,
    },
    SocToSocLink,
    DuplicateCore(String),
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use AssembleError::*;
        match self {
            UnknownCore(c) => write!(f, "link references unknown core `{c}`"),
            UnknownPort { core, port } => write!(f, "core `{core}` has no stream port `{port}`"),
            DirectionMismatch {
                core,
                port,
                expected,
            } => {
                write!(f, "port `{core}.{port}` cannot be used as {expected}")
            }
            WidthMismatch {
                from,
                to,
                from_bits,
                to_bits,
            } => {
                write!(
                    f,
                    "stream width mismatch {from}({from_bits}b) -> {to}({to_bits}b)"
                )
            }
            PortAlreadyLinked { core, port } => write!(f, "port `{core}.{port}` linked twice"),
            SocToSocLink => write!(f, "a link cannot connect 'soc to 'soc"),
            DuplicateCore(c) => write!(f, "core `{c}` specified twice"),
        }
    }
}

impl std::error::Error for AssembleError {}

/// Default Vivado-style base addresses.
pub const DMA_BASE: u64 = 0x4040_0000;
pub const CORE_BASE: u64 = 0x43C0_0000;
/// Vivado allocates 64 KiB segments by default.
pub const SEGMENT_SPAN: u64 = 0x1_0000;

/// Assemble the block design.
pub fn assemble(spec: &ArchSpec) -> Result<BlockDesign, AssembleError> {
    validate(spec)?;
    let mut bd = BlockDesign::new(&spec.name);

    let soc_links = spec
        .stream_links
        .iter()
        .filter(|l| l.from == SocEndpoint::Soc || l.to == SocEndpoint::Soc)
        .count();

    // 1. Zynq PS + reset infrastructure.
    bd.add_cell(Cell {
        name: "ps7".into(),
        kind: CellKind::ZynqPs {
            gp_masters: 1,
            hp_slaves: if soc_links > 0 { 1 } else { 0 },
        },
    });
    bd.add_cell(Cell {
        name: "rst_ps7".into(),
        kind: CellKind::ProcSysReset,
    });

    // 2. HLS cores.
    for c in &spec.cores {
        bd.add_cell(Cell {
            name: c.report.kernel.clone(),
            kind: CellKind::HlsCore(Box::new(c.report.clone())),
        });
    }

    // 3. DMA engines per policy.
    let dma_count = match (spec.dma_policy, soc_links) {
        (_, 0) => 0,
        (DmaPolicy::PerSocLink, n) => n,
        (DmaPolicy::SharedChannel, _) => 1,
    };
    for i in 0..dma_count {
        bd.add_cell(Cell {
            name: format!("axi_dma_{i}"),
            kind: CellKind::AxiDma,
        });
    }

    // 4. Stream wiring.
    let mut soc_seen = 0usize;
    for l in &spec.stream_links {
        let dma_for = |ith: usize| -> String {
            match spec.dma_policy {
                DmaPolicy::PerSocLink => format!("axi_dma_{ith}"),
                DmaPolicy::SharedChannel => "axi_dma_0".into(),
            }
        };
        match (&l.from, &l.to) {
            (SocEndpoint::Soc, SocEndpoint::Core { core, port }) => {
                let dma = dma_for(soc_seen);
                soc_seen += 1;
                bd.connect(
                    (&dma, "M_AXIS_MM2S"),
                    (core, &format!("s_axis_{port}")),
                    NetKind::AxiStream,
                );
            }
            (SocEndpoint::Core { core, port }, SocEndpoint::Soc) => {
                let dma = dma_for(soc_seen);
                soc_seen += 1;
                bd.connect(
                    (core, &format!("m_axis_{port}")),
                    (&dma, "S_AXIS_S2MM"),
                    NetKind::AxiStream,
                );
            }
            (
                SocEndpoint::Core { core: c1, port: p1 },
                SocEndpoint::Core { core: c2, port: p2 },
            ) => {
                bd.connect(
                    (c1, &format!("m_axis_{p1}")),
                    (c2, &format!("s_axis_{p2}")),
                    NetKind::AxiStream,
                );
            }
            (SocEndpoint::Soc, SocEndpoint::Soc) => unreachable!("validated"),
        }
    }

    // 5. Control interconnect: PS GP0 -> every AXI-Lite slave.
    let mut lite_slaves: Vec<String> = spec
        .cores
        .iter()
        .filter(|c| !c.report.interface.axilite_registers.is_empty())
        .map(|c| c.report.kernel.clone())
        .collect();
    for i in 0..dma_count {
        lite_slaves.push(format!("axi_dma_{i}"));
    }
    if !lite_slaves.is_empty() {
        bd.add_cell(Cell {
            name: "axi_ic_ctrl".into(),
            kind: CellKind::AxiInterconnect {
                masters: 1,
                slaves: lite_slaves.len() as u32,
            },
        });
        bd.connect(
            ("ps7", "M_AXI_GP0"),
            ("axi_ic_ctrl", "S00_AXI"),
            NetKind::AxiLite,
        );
        for (i, s) in lite_slaves.iter().enumerate() {
            bd.connect(
                ("axi_ic_ctrl", &format!("M{i:02}_AXI")),
                (s, "s_axi_ctrl"),
                NetKind::AxiLite,
            );
        }
    }

    // 6. Data-plane interconnect: DMAs -> PS HP0.
    if dma_count > 0 {
        bd.add_cell(Cell {
            name: "axi_ic_hp0".into(),
            kind: CellKind::AxiInterconnect {
                masters: dma_count as u32 * 2,
                slaves: 1,
            },
        });
        for i in 0..dma_count {
            bd.connect(
                (&format!("axi_dma_{i}"), "M_AXI_MM2S"),
                ("axi_ic_hp0", &format!("S{:02}_AXI", 2 * i)),
                NetKind::AxiLite, // memory-mapped AXI4 (modelled together)
            );
            bd.connect(
                (&format!("axi_dma_{i}"), "M_AXI_S2MM"),
                ("axi_ic_hp0", &format!("S{:02}_AXI", 2 * i + 1)),
                NetKind::AxiLite,
            );
        }
        bd.connect(
            ("axi_ic_hp0", "M00_AXI"),
            ("ps7", "S_AXI_HP0"),
            NetKind::AxiLite,
        );
    }

    // 7. Address map.
    for i in 0..dma_count {
        bd.address_map.push((
            format!("axi_dma_{i}"),
            DMA_BASE + i as u64 * SEGMENT_SPAN,
            SEGMENT_SPAN,
        ));
    }
    let mut next = CORE_BASE;
    for c in &spec.cores {
        if !c.report.interface.axilite_registers.is_empty() {
            bd.address_map
                .push((c.report.kernel.clone(), next, SEGMENT_SPAN));
            next += SEGMENT_SPAN;
        }
    }

    Ok(bd)
}

fn validate(spec: &ArchSpec) -> Result<(), AssembleError> {
    // Duplicate core names.
    for (i, a) in spec.cores.iter().enumerate() {
        if spec
            .cores
            .iter()
            .skip(i + 1)
            .any(|b| b.report.kernel == a.report.kernel)
        {
            return Err(AssembleError::DuplicateCore(a.report.kernel.clone()));
        }
    }
    let find = |name: &str| spec.cores.iter().find(|c| c.report.kernel == name);
    let port_of = |core: &str, port: &str, want_out: bool| -> Result<u32, AssembleError> {
        let c = find(core).ok_or_else(|| AssembleError::UnknownCore(core.to_string()))?;
        let sp = c
            .report
            .interface
            .stream(port)
            .ok_or_else(|| AssembleError::UnknownPort {
                core: core.to_string(),
                port: port.to_string(),
            })?;
        let ok = if want_out {
            sp.dir == StreamDir::Out
        } else {
            sp.dir == StreamDir::In
        };
        if !ok {
            return Err(AssembleError::DirectionMismatch {
                core: core.to_string(),
                port: port.to_string(),
                expected: if want_out {
                    "a stream source"
                } else {
                    "a stream destination"
                },
            });
        }
        Ok(sp.tdata_bits)
    };

    let mut used: Vec<(String, String)> = Vec::new();
    let mut mark = |core: &str, port: &str| -> Result<(), AssembleError> {
        let key = (core.to_string(), port.to_string());
        if used.contains(&key) {
            return Err(AssembleError::PortAlreadyLinked {
                core: core.to_string(),
                port: port.to_string(),
            });
        }
        used.push(key);
        Ok(())
    };

    for l in &spec.stream_links {
        match (&l.from, &l.to) {
            (SocEndpoint::Soc, SocEndpoint::Soc) => return Err(AssembleError::SocToSocLink),
            (SocEndpoint::Soc, SocEndpoint::Core { core, port }) => {
                port_of(core, port, false)?;
                mark(core, port)?;
            }
            (SocEndpoint::Core { core, port }, SocEndpoint::Soc) => {
                port_of(core, port, true)?;
                mark(core, port)?;
            }
            (
                SocEndpoint::Core { core: c1, port: p1 },
                SocEndpoint::Core { core: c2, port: p2 },
            ) => {
                let wf = port_of(c1, p1, true)?;
                let wt = port_of(c2, p2, false)?;
                if wf != wt {
                    return Err(AssembleError::WidthMismatch {
                        from: format!("{c1}.{p1}"),
                        to: format!("{c2}.{p2}"),
                        from_bits: wf,
                        to_bits: wt,
                    });
                }
                mark(c1, p1)?;
                mark(c2, p2)?;
            }
        }
    }
    for name in &spec.lite_cores {
        if find(name).is_none() {
            return Err(AssembleError::UnknownCore(name.clone()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelsoc_hls::project::{synthesize_kernel, HlsOptions};
    use accelsoc_kernel::builder::*;
    use accelsoc_kernel::types::Ty;

    fn report_for(k: accelsoc_kernel::ir::Kernel) -> HlsReport {
        std::sync::Arc::unwrap_or_clone(
            synthesize_kernel(&k, &HlsOptions::default())
                .unwrap()
                .report,
        )
    }

    fn stream_core(name: &str) -> CoreSpec {
        let k = KernelBuilder::new(name)
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
        CoreSpec {
            report: report_for(k),
        }
    }

    fn lite_core(name: &str) -> CoreSpec {
        let k = KernelBuilder::new(name)
            .scalar_in("A", Ty::U32)
            .scalar_in("B", Ty::U32)
            .scalar_out("ret", Ty::U32)
            .push(assign("ret", add(var("A"), var("B"))))
            .build();
        CoreSpec {
            report: report_for(k),
        }
    }

    fn soc() -> SocEndpoint {
        SocEndpoint::Soc
    }

    fn ep(core: &str, port: &str) -> SocEndpoint {
        SocEndpoint::Core {
            core: core.into(),
            port: port.into(),
        }
    }

    fn fig4_spec(policy: DmaPolicy) -> ArchSpec {
        // The paper's Fig. 4: ADD + MULT on AXI-Lite; GAUSS -> EDGE stream
        // pipeline fed and drained through 'soc.
        ArchSpec {
            name: "fig4".into(),
            cores: vec![
                lite_core("MUL"),
                lite_core("ADD"),
                stream_core("GAUSS"),
                stream_core("EDGE"),
            ],
            stream_links: vec![
                LinkSpec {
                    from: soc(),
                    to: ep("GAUSS", "in"),
                },
                LinkSpec {
                    from: ep("GAUSS", "out"),
                    to: ep("EDGE", "in"),
                },
                LinkSpec {
                    from: ep("EDGE", "out"),
                    to: soc(),
                },
            ],
            lite_cores: vec!["MUL".into(), "ADD".into()],
            dma_policy: policy,
        }
    }

    #[test]
    fn fig4_assembles_with_shared_dma() {
        let bd = assemble(&fig4_spec(DmaPolicy::SharedChannel)).unwrap();
        assert!(bd.cell("ps7").is_some());
        assert_eq!(bd.dma_count(), 1);
        assert!(bd.cell("GAUSS").is_some());
        // Control interconnect reaches every lite slave (4 cores + 1 DMA).
        let ic = bd.cell("axi_ic_ctrl").unwrap();
        match ic.kind {
            CellKind::AxiInterconnect { slaves, .. } => assert_eq!(slaves, 5),
            _ => panic!(),
        }
        // Stream nets: soc->GAUSS, GAUSS->EDGE, EDGE->soc.
        let stream_nets = bd
            .nets
            .iter()
            .filter(|n| n.kind == NetKind::AxiStream)
            .count();
        assert_eq!(stream_nets, 3);
    }

    #[test]
    fn per_link_policy_instantiates_more_dmas() {
        let shared = assemble(&fig4_spec(DmaPolicy::SharedChannel)).unwrap();
        let per_link = assemble(&fig4_spec(DmaPolicy::PerSocLink)).unwrap();
        assert_eq!(shared.dma_count(), 1);
        assert_eq!(per_link.dma_count(), 2); // soc->GAUSS and EDGE->soc
        assert!(per_link.raw_resources().lut > shared.raw_resources().lut);
        assert!(per_link.raw_resources().bram18 > shared.raw_resources().bram18);
    }

    #[test]
    fn address_map_is_disjoint_and_vivado_like() {
        let bd = assemble(&fig4_spec(DmaPolicy::SharedChannel)).unwrap();
        assert_eq!(bd.base_of("axi_dma_0"), Some(DMA_BASE));
        assert_eq!(bd.base_of("MUL"), Some(CORE_BASE));
        assert_eq!(bd.base_of("ADD"), Some(CORE_BASE + SEGMENT_SPAN));
        // No overlaps.
        for (i, (_, b1, s1)) in bd.address_map.iter().enumerate() {
            for (_, b2, s2) in bd.address_map.iter().skip(i + 1) {
                assert!(b1 + s1 <= *b2 || b2 + s2 <= *b1);
            }
        }
    }

    #[test]
    fn no_dma_without_soc_links() {
        let spec = ArchSpec {
            name: "lite_only".into(),
            cores: vec![lite_core("ADD")],
            stream_links: vec![],
            lite_cores: vec!["ADD".into()],
            dma_policy: DmaPolicy::SharedChannel,
        };
        let bd = assemble(&spec).unwrap();
        assert_eq!(bd.dma_count(), 0);
        assert!(bd.cell("axi_ic_hp0").is_none());
        // PS has no HP slaves enabled.
        match bd.cell("ps7").unwrap().kind {
            CellKind::ZynqPs { hp_slaves, .. } => assert_eq!(hp_slaves, 0),
            _ => panic!(),
        }
    }

    #[test]
    fn bad_links_rejected() {
        let mut spec = fig4_spec(DmaPolicy::SharedChannel);
        spec.stream_links.push(LinkSpec {
            from: soc(),
            to: soc(),
        });
        assert_eq!(assemble(&spec).unwrap_err(), AssembleError::SocToSocLink);

        let mut spec = fig4_spec(DmaPolicy::SharedChannel);
        spec.stream_links.push(LinkSpec {
            from: soc(),
            to: ep("GHOST", "in"),
        });
        assert_eq!(
            assemble(&spec).unwrap_err(),
            AssembleError::UnknownCore("GHOST".into())
        );

        let mut spec = fig4_spec(DmaPolicy::SharedChannel);
        spec.stream_links.push(LinkSpec {
            from: soc(),
            to: ep("GAUSS", "nope"),
        });
        assert!(matches!(
            assemble(&spec).unwrap_err(),
            AssembleError::UnknownPort { .. }
        ));

        // Using an output port as a destination.
        let mut spec = fig4_spec(DmaPolicy::SharedChannel);
        spec.stream_links.push(LinkSpec {
            from: soc(),
            to: ep("GAUSS", "out"),
        });
        assert!(matches!(
            assemble(&spec).unwrap_err(),
            AssembleError::DirectionMismatch { .. }
        ));
    }

    #[test]
    fn double_linked_port_rejected() {
        let mut spec = fig4_spec(DmaPolicy::SharedChannel);
        spec.stream_links.push(LinkSpec {
            from: soc(),
            to: ep("GAUSS", "in"),
        });
        assert!(matches!(
            assemble(&spec).unwrap_err(),
            AssembleError::PortAlreadyLinked { .. }
        ));
    }

    #[test]
    fn width_mismatch_between_cores_rejected() {
        let wide = KernelBuilder::new("WIDE")
            .scalar_in("n", Ty::U32)
            .stream_in("in", Ty::U32)
            .stream_out("out", Ty::U32)
            .push(for_pipelined(
                "i",
                c(0),
                var("n"),
                vec![write("out", read("in"))],
            ))
            .build();
        let spec = ArchSpec {
            name: "mismatch".into(),
            cores: vec![
                stream_core("NARROW"),
                CoreSpec {
                    report: report_for(wide),
                },
            ],
            stream_links: vec![LinkSpec {
                from: ep("NARROW", "out"),
                to: ep("WIDE", "in"),
            }],
            lite_cores: vec![],
            dma_policy: DmaPolicy::SharedChannel,
        };
        assert!(matches!(
            assemble(&spec).unwrap_err(),
            AssembleError::WidthMismatch { .. }
        ));
    }

    #[test]
    fn duplicate_core_rejected() {
        let spec = ArchSpec {
            name: "dup".into(),
            cores: vec![lite_core("ADD"), lite_core("ADD")],
            stream_links: vec![],
            lite_cores: vec![],
            dma_policy: DmaPolicy::SharedChannel,
        };
        assert_eq!(
            assemble(&spec).unwrap_err(),
            AssembleError::DuplicateCore("ADD".into())
        );
    }
}
