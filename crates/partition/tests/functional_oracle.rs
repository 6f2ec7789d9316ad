//! Differential oracle for the partition functional layer: every chain
//! result `run_partition_sim` reports (computed on the lane VM) must equal
//! a tree-walking-interpreter run of the same four kernels on the same
//! tile, across scales, tile sides, seeds and host thread counts.

use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::{kernels, otsu};
use accelsoc_kernel::{Interpreter, Kernel, StreamBundle};
use accelsoc_partition::{run_partition_sim, ChainResult, PartitionSimOptions};
use std::collections::HashMap;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Interpret `kernel` once over `feeds` and hand back the bundle.
fn interpret(
    kernel: &Kernel,
    scalars: &HashMap<String, i64>,
    feeds: Vec<(&str, Vec<i64>)>,
) -> StreamBundle {
    let mut s = StreamBundle::new();
    for (port, tokens) in feeds {
        s.feed(port, tokens);
    }
    Interpreter::new(kernel)
        .run(scalars, &mut s)
        .expect("oracle run");
    s
}

/// Chain `chain` of a partition-sim run, computed on the interpreter.
fn oracle_chain(chain: usize, side: u32, seed: u64) -> ChainResult {
    let rgb = RgbImage::from_gray(&synthetic_scene(side, side, seed));
    let n = HashMap::from([("n".to_string(), i64::from(side * side))]);
    let pixels = rgb.data.iter().map(|&p| p as i64).collect();

    let mut s = interpret(&kernels::grayscale(), &n, vec![("imageIn", pixels)]);
    let gray_ch = s.take_output("imageOutCH").unwrap();
    let gray_seg = s.take_output("imageOutSEG").unwrap();
    let hist = interpret(
        &kernels::compute_histogram(),
        &n,
        vec![("grayScaleImage", gray_ch)],
    )
    .take_output("histogram")
    .unwrap();
    let threshold = interpret(
        &kernels::half_probability(),
        &HashMap::new(),
        vec![("histogram", hist)],
    )
    .take_output("probability")
    .unwrap()[0] as u8;
    let out: Vec<u8> = interpret(
        &kernels::segment(),
        &n,
        vec![
            ("otsuThreshold", vec![i64::from(threshold)]),
            ("grayScaleImage", gray_seg),
        ],
    )
    .take_output("segmentedGrayImage")
    .unwrap()
    .iter()
    .map(|&v| v as u8)
    .collect();

    let (ref_img, ref_thr) = otsu::otsu_reference(&rgb);
    ChainResult {
        chain,
        threshold,
        checksum: fnv1a(&out),
        exact: threshold == ref_thr && out == ref_img.data,
    }
}

#[test]
fn lane_vm_chains_match_the_interpreter_oracle() {
    for scale in [1usize, 3, 7] {
        for side in [8u32, 17, 33] {
            for seed in [1u64, 0x9e37_79b9_7f4a_7c15] {
                let oracle: Vec<ChainResult> = (0..scale)
                    .map(|k| oracle_chain(k, side, seed.wrapping_add(k as u64)))
                    .collect();
                for threads in [1usize, 3] {
                    let opts = PartitionSimOptions::builder()
                        .scale(scale)
                        .side(side)
                        .seed(seed)
                        .threads(threads)
                        .build();
                    let rep = run_partition_sim(&opts).expect("partition-sim");
                    assert_eq!(
                        rep.chains, oracle,
                        "scale {scale}, side {side}, seed {seed}, threads {threads}"
                    );
                    assert_eq!(rep.pixel_exact, oracle.iter().all(|c| c.exact));
                }
            }
        }
    }
}
