//! Failure-injection integration tests: every stage of the flow must
//! reject broken inputs with a specific, actionable error — the manual
//! process the paper automates is "tedious and error-prone" precisely
//! because these mistakes otherwise surface late or silently.

use accelsoc::apps::archs::{arch_dsl_source, otsu_flow_engine, Arch};
use accelsoc::core::builder::TaskGraphBuilder;
use accelsoc::core::flow::{FlowEngine, FlowError, FlowOptions, PortIssue};
use accelsoc::integration::device::Device;
use accelsoc_hls::resource::ResourceEstimate;
use accelsoc_kernel::builder::*;
use accelsoc_kernel::types::Ty;

fn stream_kernel(name: &str) -> accelsoc_kernel::ir::Kernel {
    KernelBuilder::new(name)
        .scalar_in("n", Ty::U32)
        .stream_in("in", Ty::U8)
        .stream_out("out", Ty::U8)
        .push(for_pipelined(
            "i",
            c(0),
            var("n"),
            vec![write("out", read("in"))],
        ))
        .build()
}

#[test]
fn syntax_errors_carry_positions() {
    let mut e = otsu_flow_engine();
    let err = e
        .run_source("tg nodes;\n  tg node MISSING_QUOTES i \"x\" end;\n")
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("2:"), "line number in: {msg}");
    assert!(msg.contains("node name string"), "{msg}");
}

#[test]
fn semantic_errors_name_the_culprit() {
    let mut e = FlowEngine::new(FlowOptions::default());
    e.register_kernel(stream_kernel("A"));
    // Unlinked stream port.
    let g = TaskGraphBuilder::new("bad")
        .node("A", |n| n.stream("in").stream("out"))
        .link_soc_to("A", "in")
        .build()
        .unwrap();
    let msg = e.run(&g).unwrap_err().to_string();
    assert!(msg.contains("A.out"), "{msg}");
}

#[test]
fn kernel_interface_mismatches_rejected() {
    let mut e = FlowEngine::new(FlowOptions::default());
    e.register_kernel(stream_kernel("A"));
    // DSL says `i` (AXI-Lite) for what the kernel declares as a stream.
    let g = TaskGraphBuilder::new("bad")
        .node("A", |n| n.lite("in").stream("out"))
        .connect("A")
        .link_to_soc("A", "out")
        .build()
        .unwrap();
    match e.run(&g).unwrap_err() {
        FlowError::PortMismatch { node, port, issue } => {
            assert_eq!(node, "A");
            assert_eq!(port, "in");
            assert!(matches!(issue, PortIssue::KindMismatch { .. }), "{issue}");
        }
        other => panic!("expected PortMismatch, got {other}"),
    }
}

#[test]
fn direction_reversal_rejected() {
    // Linking the kernel's input port as a stream source.
    let mut e = FlowEngine::new(FlowOptions::default());
    e.register_kernel(stream_kernel("A"));
    e.register_kernel(stream_kernel("B"));
    let g = TaskGraphBuilder::new("bad")
        .node("A", |n| n.stream("in").stream("out"))
        .node("B", |n| n.stream("in").stream("out"))
        .link_soc_to("A", "in")
        // Reversed: A.in used as a source again would be double-use; use
        // B.out as a *destination* instead.
        .link(("A", "out"), ("B", "out"))
        .link_soc_to("B", "in")
        .build()
        .unwrap();
    let err = e.run(&g).unwrap_err();
    assert!(
        matches!(err, FlowError::Semantic(_) | FlowError::PortMismatch { .. }),
        "{err}"
    );
}

#[test]
fn overcapacity_fails_synthesis_not_later() {
    let tiny = Device {
        part: "tiny".into(),
        capacity: ResourceEstimate::new(2_000, 4_000, 4, 2),
        cols: 10,
        rows: 10,
        site_luts: 20,
    };
    let mut e = FlowEngine::new(FlowOptions::builder().device(tiny).build());
    for k in accelsoc::apps::kernels::otsu_kernels() {
        e.register_kernel(k);
    }
    match e.run_source(&arch_dsl_source(Arch::Arch4)).unwrap_err() {
        FlowError::Synth(err) => {
            let ce = err
                .capacity_exceeded()
                .unwrap_or_else(|| panic!("expected CapacityExceeded, got {err}"));
            assert_eq!(ce.part, "tiny");
            assert!(!ce.requested.fits_in(&ce.available));
        }
        other => panic!("expected synthesis failure, got {other}"),
    }
}

#[test]
fn corrupted_bitstreams_and_boot_images_detected() {
    use accelsoc::swgen::boot::BootImage;
    use accelsoc_integration::bitstream;
    let mut e = otsu_flow_engine();
    let art = e.run_source(&arch_dsl_source(Arch::Arch1)).unwrap();

    // Flip one payload bit in the bitstream.
    let mut bytes = art.bitstream.data.to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    assert!(bitstream::verify(&bytes.into()).is_err());

    // Truncate the boot image.
    let cut = art.boot.data.slice(0..art.boot.data.len() - 5);
    assert!(BootImage::verify(&cut).is_err());
}

#[test]
fn board_runtime_errors_surface_cleanly() {
    use accelsoc_axi::dma::DmaDescriptor;
    let mut e = otsu_flow_engine();
    let art = e.run_source(&arch_dsl_source(Arch::Arch1)).unwrap();
    let mut board = e.build_board(&art, 1 << 16).unwrap();
    // Feed fewer tokens than the core's `n` demands: the stream underflow
    // must name the accelerator.
    board.dram.load_bytes(0x100, &[1, 2, 3, 4]).unwrap();
    let err = board
        .run_stream_phase(
            &[(
                0,
                DmaDescriptor {
                    addr: 0x100,
                    len: 4,
                },
            )],
            &[(
                0,
                DmaDescriptor {
                    addr: 0x200,
                    len: 1024,
                },
            )],
            &[(0, "n", 100)],
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("computeHistogram"), "{msg}");
    assert!(msg.contains("underflow"), "{msg}");
}

#[test]
fn dma_misuse_detected() {
    use accelsoc_axi::dma::{mm2s, DmaDescriptor, DmaError};
    use accelsoc_axi::protocol::VecMemory;
    let mut mem = VecMemory::new(64);
    // Misaligned length for a 4-byte beat.
    assert!(matches!(
        mm2s(&mut mem, DmaDescriptor { addr: 0, len: 10 }, 4),
        Err(DmaError::LengthMisaligned { .. })
    ));
    // Reads past the end of DRAM.
    assert!(matches!(
        mm2s(&mut mem, DmaDescriptor { addr: 32, len: 64 }, 4),
        Err(DmaError::Mem(_))
    ));
}
