//! Criterion bench for the Ext-1 experiment: executing the Otsu
//! application on the simulated ZedBoard (one benchmark per architecture)
//! and the raw building blocks (DMA transfers, streaming phases).

use accelsoc_apps::archs::{arch_dsl_source, otsu_flow_engine, Arch};
use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::otsu::run_application;
use accelsoc_axi::dma::{mm2s, DmaDescriptor};
use accelsoc_axi::protocol::VecMemory;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_application(c: &mut Criterion) {
    let mut group = c.benchmark_group("otsu_application_64x64");
    group.sample_size(10);
    let scene = synthetic_scene(64, 64, 1);
    let rgb = RgbImage::from_gray(&scene);
    let mut engine = otsu_flow_engine();
    for arch in Arch::all() {
        let art = engine.run_source(&arch_dsl_source(arch)).unwrap();
        group.bench_function(arch.name(), |b| {
            b.iter(|| run_application(arch, &engine, &art, &rgb).unwrap());
        });
    }
    group.finish();
}

fn bench_dma(c: &mut Criterion) {
    let mut group = c.benchmark_group("dma_mm2s");
    for kib in [1usize, 16, 64] {
        group.bench_function(format!("{kib}KiB"), |b| {
            let mut mem = VecMemory::new(kib * 1024);
            b.iter(|| {
                mm2s(
                    &mut mem,
                    DmaDescriptor {
                        addr: 0,
                        len: (kib * 1024) as u64,
                    },
                    4,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_stream_phase(c: &mut Criterion) {
    // GAUSS -> EDGE pipeline on the board: throughput of the functional
    // stream-phase executor.
    use accelsoc_apps::demo::{fig4_flow_engine, fig4_graph};
    let mut engine = fig4_flow_engine();
    let art = engine.run(&fig4_graph()).unwrap();
    let gauss = art.hls.iter().position(|(n, _)| n == "GAUSS").unwrap();
    let edge = art.hls.iter().position(|(n, _)| n == "EDGE").unwrap();
    let mut group = c.benchmark_group("stream_phase_gauss_edge");
    group.sample_size(10);
    for n in [256usize, 4096] {
        group.bench_function(format!("{n}_tokens"), |b| {
            b.iter(|| {
                let mut board = engine.build_board(&art, 1 << 20).unwrap();
                let data: Vec<u8> = (0..n).map(|i| (i & 0xff) as u8).collect();
                board.dram.load_bytes(0x1000, &data).unwrap();
                board
                    .run_stream_phase(
                        &[(
                            0,
                            DmaDescriptor {
                                addr: 0x1000,
                                len: n as u64,
                            },
                        )],
                        &[(
                            0,
                            DmaDescriptor {
                                addr: 0x8_0000,
                                len: n as u64,
                            },
                        )],
                        &[(gauss, "n", n as i64), (edge, "n", n as i64)],
                    )
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_application, bench_dma, bench_stream_phase);
criterion_main!(benches);
