//! Kernel-IR implementations of the case-study and demo tasks — the
//! stand-ins for the paper's "synthesizable C/C++ description of each task".
//!
//! Node and port names match Listing 4 (`grayScale`, `computeHistogram`,
//! `halfProbability`, `segment`) and Fig. 4 (`ADD`, `MUL`, `GAUSS`,
//! `EDGE`). Every kernel is verified at construction and is executable by
//! the interpreter, so the same source drives HLS *and* functional
//! simulation.

use accelsoc_kernel::builder::*;
use accelsoc_kernel::ir::Kernel;
use accelsoc_kernel::types::Ty;

/// Largest image the Otsu kernels can count: `halfProbability` holds
/// pixel counts (`total`, `wB`, `wF`) in 21-bit unsigned locals, which
/// wrap past 2^21 − 1.
pub const MAX_PIXELS: u32 = (1 << 21) - 1;

/// `grayScale`: packed-RGB stream in, two duplicated 8-bit gray streams
/// out (one feeding the histogram path, one the segmentation path).
/// Integer luma: `(77 R + 150 G + 29 B) >> 8`.
pub fn grayscale() -> Kernel {
    KernelBuilder::new("grayScale")
        .scalar_in("n", Ty::U32)
        .stream_in("imageIn", Ty::U32)
        .stream_out("imageOutCH", Ty::U8)
        .stream_out("imageOutSEG", Ty::U8)
        .local("px", Ty::U32)
        .local("r", Ty::U8)
        .local("g", Ty::U8)
        .local("b", Ty::U8)
        .local("y", Ty::U8)
        .push(for_pipelined(
            "i",
            c(0),
            var("n"),
            vec![
                assign("px", read("imageIn")),
                assign("r", band(shr(var("px"), c(16)), c(255))),
                assign("g", band(shr(var("px"), c(8)), c(255))),
                assign("b", band(var("px"), c(255))),
                assign(
                    "y",
                    shr(
                        add(
                            add(mul(var("r"), c(77)), mul(var("g"), c(150))),
                            mul(var("b"), c(29)),
                        ),
                        c(8),
                    ),
                ),
                write("imageOutCH", var("y")),
                write("imageOutSEG", var("y")),
            ],
        ))
        .build()
}

/// `computeHistogram`: 8-bit gray stream in, 256-entry histogram out.
/// The read-modify-write on `bins` is the loop-carried recurrence that
/// bounds the pipeline II (and puts the core's storage in BRAM).
pub fn compute_histogram() -> Kernel {
    KernelBuilder::new("computeHistogram")
        .scalar_in("n", Ty::U32)
        .stream_in("grayScaleImage", Ty::U8)
        .stream_out("histogram", Ty::U32)
        .array("bins", Ty::U32, 256)
        .local("v", Ty::U8)
        .body(vec![
            for_pipelined(
                "i",
                c(0),
                var("n"),
                vec![
                    assign("v", read("grayScaleImage")),
                    store("bins", var("v"), add(idx("bins", var("v")), c(1))),
                ],
            ),
            for_pipelined(
                "j",
                c(0),
                c(256),
                vec![write("histogram", idx("bins", var("j")))],
            ),
        ])
        .build()
}

/// `halfProbability` — the paper's `otsuMethod` core: consumes the
/// 256-bin histogram and produces the Otsu threshold (one token).
///
/// Integer Otsu: maximize the between-class variance
/// `σ²(t) = wB(t)·wF(t)·(µB(t) − µF(t))²` over all thresholds `t`. The
/// divisions for the class means make this the LUT-hungriest core and the
/// multiplies claim the design's DSPs — the Table II signature of Arch2.
pub fn half_probability() -> Kernel {
    KernelBuilder::new("halfProbability")
        .stream_in("histogram", Ty::U32)
        .stream_out("probability", Ty::U32)
        .array("h", Ty::U32, 256)
        .local("total", Ty::unsigned(21))
        .local("sumAll", Ty::U32)
        .local("wB", Ty::unsigned(21))
        .local("wF", Ty::unsigned(21))
        .local("sumB", Ty::U32)
        .local("mB", Ty::U16)
        .local("mF", Ty::U16)
        .local("d", Ty::I16)
        .local("dd", Ty::U32)
        // between = wB·wF·(µB−µF)² can reach 2^50 for a 2^18-pixel image.
        .local("between", Ty::unsigned(56))
        .local("maxVar", Ty::unsigned(56))
        .local("thr", Ty::U8)
        .body(vec![
            for_pipelined(
                "i",
                c(0),
                c(256),
                vec![store("h", var("i"), read("histogram"))],
            ),
            assign("total", c(0)),
            assign("sumAll", c(0)),
            for_(
                "i",
                c(0),
                c(256),
                vec![
                    assign("total", add(var("total"), idx("h", var("i")))),
                    assign(
                        "sumAll",
                        add(var("sumAll"), mul(var("i"), idx("h", var("i")))),
                    ),
                ],
            ),
            assign("wB", c(0)),
            assign("sumB", c(0)),
            assign("maxVar", c(0)),
            assign("thr", c(0)),
            for_(
                "t",
                c(0),
                c(256),
                vec![
                    assign("wB", add(var("wB"), idx("h", var("t")))),
                    assign("sumB", add(var("sumB"), mul(var("t"), idx("h", var("t"))))),
                    assign("wF", sub(var("total"), var("wB"))),
                    if_(
                        band(gt(var("wB"), c(0)), gt(var("wF"), c(0))),
                        vec![
                            assign("mB", div(var("sumB"), var("wB"))),
                            assign("mF", div(sub(var("sumAll"), var("sumB")), var("wF"))),
                            assign("d", sub(var("mB"), var("mF"))),
                            assign("dd", mul(var("d"), var("d"))),
                            assign("between", mul(mul(var("wB"), var("wF")), var("dd"))),
                            if_(
                                gt(var("between"), var("maxVar")),
                                vec![assign("maxVar", var("between")), assign("thr", var("t"))],
                            ),
                        ],
                    ),
                ],
            ),
            write("probability", var("thr")),
        ])
        .build()
}

/// `segment` — the paper's `binarization` core: reads the threshold (one
/// token), then binarizes the gray stream (`255` above threshold, `0`
/// below).
pub fn segment() -> Kernel {
    KernelBuilder::new("segment")
        .scalar_in("n", Ty::U32)
        .stream_in("otsuThreshold", Ty::U32)
        .stream_in("grayScaleImage", Ty::U8)
        .stream_out("segmentedGrayImage", Ty::U8)
        .local("thr", Ty::U16)
        .local("v", Ty::U8)
        .body(vec![
            assign("thr", read("otsuThreshold")),
            for_pipelined(
                "i",
                c(0),
                var("n"),
                vec![
                    assign("v", read("grayScaleImage")),
                    write(
                        "segmentedGrayImage",
                        select(gt(var("v"), var("thr")), c(255), c(0)),
                    ),
                ],
            ),
        ])
        .build()
}

/// All four Otsu kernels, in chain order (see [`crate::otsu::STAGES`]).
pub fn otsu_kernels() -> Vec<Kernel> {
    crate::otsu::STAGES.iter().map(|s| s.kernel_ir()).collect()
}

/// The Otsu kernel with Listing-4 node name `name`.
pub fn otsu_kernel(name: &str) -> Option<Kernel> {
    Some(match name {
        "grayScale" => grayscale(),
        "computeHistogram" => compute_histogram(),
        "halfProbability" => half_probability(),
        "segment" => segment(),
        _ => return None,
    })
}

// --- Fig. 4 demo kernels -------------------------------------------------

/// `ADD`: memory-mapped scalar adder (AXI-Lite ports `A`, `B`, `return`).
pub fn add_core() -> Kernel {
    KernelBuilder::new("ADD")
        .scalar_in("A", Ty::U32)
        .scalar_in("B", Ty::U32)
        .scalar_out("return", Ty::U32)
        .push(assign("return", add(var("A"), var("B"))))
        .build()
}

/// `MUL`: memory-mapped scalar multiplier.
pub fn mul_core() -> Kernel {
    KernelBuilder::new("MUL")
        .scalar_in("A", Ty::U32)
        .scalar_in("B", Ty::U32)
        .scalar_out("return", Ty::U32)
        .push(assign("return", mul(var("A"), var("B"))))
        .build()
}

/// `GAUSS`: streaming 3-tap binomial smoother `[1 2 1]/4` (a line-buffer-
/// free 1-D stand-in for the paper's Gauss filter; the stream topology —
/// which is what the DSL integrates — is identical).
pub fn gauss_core() -> Kernel {
    KernelBuilder::new("GAUSS")
        .scalar_in("n", Ty::U32)
        .stream_in("in", Ty::U8)
        .stream_out("out", Ty::U8)
        .local("v", Ty::U8)
        .local("prev", Ty::U8)
        .local("pprev", Ty::U8)
        .body(vec![
            assign("prev", c(0)),
            assign("pprev", c(0)),
            for_pipelined(
                "i",
                c(0),
                var("n"),
                vec![
                    assign("v", read("in")),
                    write(
                        "out",
                        shr(
                            add(add(var("pprev"), shl(var("prev"), c(1))), var("v")),
                            c(2),
                        ),
                    ),
                    assign("pprev", var("prev")),
                    assign("prev", var("v")),
                ],
            ),
        ])
        .build()
}

/// `EDGE`: streaming gradient-magnitude detector `|x[i] − x[i−2]|`
/// (the 1-D stand-in for the paper's edge-detection filter).
pub fn edge_core() -> Kernel {
    KernelBuilder::new("EDGE")
        .scalar_in("n", Ty::U32)
        .stream_in("in", Ty::U8)
        .stream_out("out", Ty::U8)
        .local("v", Ty::U8)
        .local("prev", Ty::U8)
        .local("pprev", Ty::U8)
        .local("g", Ty::I16)
        .body(vec![
            assign("prev", c(0)),
            assign("pprev", c(0)),
            for_pipelined(
                "i",
                c(0),
                var("n"),
                vec![
                    assign("v", read("in")),
                    assign("g", sub(var("v"), var("pprev"))),
                    write("out", select(lt(var("g"), c(0)), neg(var("g")), var("g"))),
                    assign("pprev", var("prev")),
                    assign("prev", var("v")),
                ],
            ),
        ])
        .build()
}

// --- 2-D filters with line buffers ---------------------------------------
//
// The 1-D `GAUSS`/`EDGE` stand-ins above keep the Fig. 4 reproduction
// simple; these are the full 2-D versions a production pipeline would
// synthesize: 3×3 windows maintained by two line buffers (arrays of one
// image row) plus a 3×3 shift-register window — the canonical streaming-
// convolution structure HLS tools expect. Border pixels see the zero-
// initialised buffers (documented border artifact).

/// Build the shared line-buffer/window maintenance statements:
/// reads one pixel, rotates the window and line buffers, advances the
/// column counter. The caller appends the arithmetic + `write`.
fn conv3x3_prologue() -> Vec<accelsoc_kernel::ir::Stmt> {
    vec![
        // Fetch pixel and the two rows above this column.
        assign("v", read("in")),
        assign("top", idx("lb1", var("x"))),
        assign("mid", idx("lb0", var("x"))),
        // Rotate line buffers: row i-1 -> row i-2, current -> row i-1.
        store("lb1", var("x"), var("mid")),
        store("lb0", var("x"), var("v")),
        // Shift the 3x3 window one column left.
        assign("t0", var("t1")),
        assign("t1", var("t2")),
        assign("t2", var("top")),
        assign("m0", var("m1")),
        assign("m1", var("m2")),
        assign("m2", var("mid")),
        assign("b0", var("b1")),
        assign("b1", var("b2")),
        assign("b2", var("v")),
    ]
}

fn conv3x3_epilogue() -> Vec<accelsoc_kernel::ir::Stmt> {
    vec![
        // Column counter with compare/reset (no division).
        assign("x", add(var("x"), c(1))),
        if_(eq(var("x"), var("W")), vec![assign("x", c(0))]),
    ]
}

fn conv3x3_builder(name: &str) -> KernelBuilder {
    KernelBuilder::new(name)
        .scalar_in("n", Ty::U32)
        .scalar_in("W", Ty::U32)
        .stream_in("in", Ty::U8)
        .stream_out("out", Ty::U8)
        .array("lb0", Ty::U8, 4096)
        .array("lb1", Ty::U8, 4096)
        .local("x", Ty::U16)
        .local("v", Ty::U8)
        .local("top", Ty::U8)
        .local("mid", Ty::U8)
        .local("t0", Ty::U8)
        .local("t1", Ty::U8)
        .local("t2", Ty::U8)
        .local("m0", Ty::U8)
        .local("m1", Ty::U8)
        .local("m2", Ty::U8)
        .local("b0", Ty::U8)
        .local("b1", Ty::U8)
        .local("b2", Ty::U8)
}

/// `GAUSS2D`: 3×3 binomial smoother `[[1,2,1],[2,4,2],[1,2,1]] / 16` over
/// a streamed image (row-major, width `W`, `n` pixels).
pub fn gauss2d_core() -> Kernel {
    let mut body = conv3x3_prologue();
    body.push(assign(
        "acc",
        add(
            add(
                add(add(var("t0"), shl(var("t1"), c(1))), var("t2")),
                add(
                    add(shl(var("m0"), c(1)), shl(var("m1"), c(2))),
                    shl(var("m2"), c(1)),
                ),
            ),
            add(add(var("b0"), shl(var("b1"), c(1))), var("b2")),
        ),
    ));
    body.push(write("out", shr(var("acc"), c(4))));
    body.extend(conv3x3_epilogue());
    conv3x3_builder("GAUSS2D")
        .local("acc", Ty::U16)
        .push(for_pipelined("i", c(0), var("n"), body))
        .build()
}

/// `SOBEL2D`: 3×3 Sobel gradient magnitude `min(255, |gx| + |gy|)`.
pub fn sobel2d_core() -> Kernel {
    let mut body = conv3x3_prologue();
    // gx = (t2 + 2*m2 + b2) - (t0 + 2*m0 + b0)
    body.push(assign(
        "gx",
        sub(
            add(add(var("t2"), shl(var("m2"), c(1))), var("b2")),
            add(add(var("t0"), shl(var("m0"), c(1))), var("b0")),
        ),
    ));
    // gy = (b0 + 2*b1 + b2) - (t0 + 2*t1 + t2)
    body.push(assign(
        "gy",
        sub(
            add(add(var("b0"), shl(var("b1"), c(1))), var("b2")),
            add(add(var("t0"), shl(var("t1"), c(1))), var("t2")),
        ),
    ));
    body.push(assign(
        "ax",
        select(lt(var("gx"), c(0)), neg(var("gx")), var("gx")),
    ));
    body.push(assign(
        "ay",
        select(lt(var("gy"), c(0)), neg(var("gy")), var("gy")),
    ));
    body.push(assign("mag", add(var("ax"), var("ay"))));
    body.push(write(
        "out",
        select(gt(var("mag"), c(255)), c(255), var("mag")),
    ));
    body.extend(conv3x3_epilogue());
    conv3x3_builder("SOBEL2D")
        .local("gx", Ty::I16)
        .local("gy", Ty::I16)
        .local("ax", Ty::U16)
        .local("ay", Ty::U16)
        .local("mag", Ty::U16)
        .push(for_pipelined("i", c(0), var("n"), body))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelsoc_kernel::interp::{Interpreter, StreamBundle};
    use std::collections::HashMap;

    fn run(k: &Kernel, scalars: &[(&str, i64)], streams: &mut StreamBundle) {
        let inputs: HashMap<String, i64> =
            scalars.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        Interpreter::new(k).run(&inputs, streams).unwrap();
    }

    #[test]
    fn grayscale_computes_integer_luma_twice() {
        let k = grayscale();
        let mut s = StreamBundle::new();
        // Pure red, pure green, pure blue, white.
        s.feed("imageIn", [0xFF0000, 0x00FF00, 0x0000FF, 0xFFFFFF]);
        run(&k, &[("n", 4)], &mut s);
        let expect: Vec<i64> = vec![
            (77 * 255) >> 8,
            (150 * 255) >> 8,
            (29 * 255) >> 8,
            (77 * 255 + 150 * 255 + 29 * 255) >> 8,
        ];
        assert_eq!(s.output("imageOutCH"), expect.as_slice());
        assert_eq!(s.output("imageOutSEG"), expect.as_slice());
    }

    #[test]
    fn histogram_counts_tokens() {
        let k = compute_histogram();
        let mut s = StreamBundle::new();
        s.feed("grayScaleImage", [0, 0, 5, 255, 255, 255]);
        run(&k, &[("n", 6)], &mut s);
        let h = s.output("histogram");
        assert_eq!(h.len(), 256);
        assert_eq!(h[0], 2);
        assert_eq!(h[5], 1);
        assert_eq!(h[255], 3);
        assert_eq!(h.iter().sum::<i64>(), 6);
    }

    #[test]
    fn half_probability_matches_reference_otsu() {
        // Bimodal histogram: mass at 50 and at 200.
        let mut hist = vec![0i64; 256];
        hist[50] = 400;
        hist[60] = 100;
        hist[200] = 300;
        hist[210] = 200;
        let k = half_probability();
        let mut s = StreamBundle::new();
        s.feed("histogram", hist.iter().copied());
        run(&k, &[], &mut s);
        let thr = s.output("probability")[0];
        let expect = crate::otsu::otsu_threshold_from_hist(&{
            let mut h = [0u32; 256];
            for (i, &v) in hist.iter().enumerate() {
                h[i] = v as u32;
            }
            h
        });
        assert_eq!(thr, expect as i64);
        // Threshold separates the two modes.
        assert!((60..200).contains(&thr), "thr = {thr}");
    }

    #[test]
    fn half_probability_scan_runs_in_chunks_on_real_histograms() {
        // The threshold scan's guarded blocks (the `wB > 0 && wF > 0`
        // guard with its two divisions, and the argmax under it) run a
        // chunk at a time on the chain's own histograms: op at a time a
        // call costs over 4 400 dispatches. Every lane still matches the
        // interpreter and the reference threshold.
        use crate::image::{synthetic_scene, RgbImage};
        use accelsoc_kernel::compile::CompiledKernel;
        let k = half_probability();
        let ck = CompiledKernel::compile(&k);
        for side in [16u32, 24, 32, 64] {
            let hists: Vec<[u32; 256]> = (0..4)
                .map(|seed| {
                    let rgb = RgbImage::from_gray(&synthetic_scene(side, side, 2016 + seed));
                    crate::otsu::histogram_reference(&crate::otsu::grayscale_reference(&rgb))
                })
                .collect();
            for width in [1usize, 4] {
                let inputs = vec![HashMap::new(); width];
                let bundle = |h: &[u32; 256]| {
                    let mut b = StreamBundle::new();
                    b.feed("histogram", h.iter().map(|&v| v as i64));
                    b
                };
                let mut bundles: Vec<StreamBundle> = hists[..width].iter().map(bundle).collect();
                let out = ck.run_batch(&inputs, &mut bundles);
                assert!(
                    out.dispatches <= 64,
                    "side {side} width {width}: {} dispatches",
                    out.dispatches
                );
                for (l, h) in hists[..width].iter().enumerate() {
                    let mut oracle = bundle(h);
                    let want = Interpreter::new(&k)
                        .run(&HashMap::new(), &mut oracle)
                        .unwrap();
                    let got = out.lanes[l].as_ref().unwrap();
                    assert_eq!(got.stats, want.stats, "side {side} width {width} lane {l}");
                    let thr = bundles[l].output("probability");
                    assert_eq!(thr, oracle.output("probability"));
                    assert_eq!(thr, [crate::otsu::otsu_threshold_from_hist(h) as i64]);
                }
            }
        }
    }

    #[test]
    fn segment_binarizes_around_threshold() {
        let k = segment();
        let mut s = StreamBundle::new();
        s.feed("otsuThreshold", [100]);
        s.feed("grayScaleImage", [0, 99, 100, 101, 255]);
        run(&k, &[("n", 5)], &mut s);
        assert_eq!(s.output("segmentedGrayImage"), &[0, 0, 0, 255, 255]);
    }

    #[test]
    fn add_and_mul_cores() {
        let mut s = StreamBundle::new();
        let inputs = HashMap::from([("A".to_string(), 6i64), ("B".to_string(), 7i64)]);
        let add_out = Interpreter::new(&add_core()).run(&inputs, &mut s).unwrap();
        assert_eq!(add_out.scalar_outputs["return"], 13);
        let mul_out = Interpreter::new(&mul_core()).run(&inputs, &mut s).unwrap();
        assert_eq!(mul_out.scalar_outputs["return"], 42);
    }

    #[test]
    fn gauss_smooths_and_edge_detects() {
        let mut s = StreamBundle::new();
        s.feed("in", [0, 0, 0, 100, 100, 100]);
        run(&gauss_core(), &[("n", 6)], &mut s);
        let out = s.output("out");
        // Smoothed step: monotone rise, ends near 100.
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*out.last().unwrap(), 100);

        let mut s = StreamBundle::new();
        s.feed("in", [10, 10, 10, 200, 200, 200]);
        run(&edge_core(), &[("n", 6)], &mut s);
        let out = s.output("out");
        // Gradient spikes at the step, zero in settled flat regions (the
        // first two outputs see the zero-initialised delay registers).
        assert_eq!(out[2], 0);
        assert!(out[3] > 150 && out[4] > 150);
        assert_eq!(out[5], 0);
    }

    #[test]
    fn all_kernels_pass_verification_and_hls() {
        use accelsoc_hls::project::{synthesize_kernel, HlsOptions};
        for k in
            otsu_kernels()
                .into_iter()
                .chain([add_core(), mul_core(), gauss_core(), edge_core()])
        {
            let r = synthesize_kernel(&k, &HlsOptions::default());
            assert!(r.is_ok(), "{} failed HLS", k.name);
        }
    }

    #[test]
    fn otsu_core_resource_signature() {
        use accelsoc_hls::project::{synthesize_kernel, HlsOptions};
        let hist = synthesize_kernel(&compute_histogram(), &HlsOptions::default())
            .unwrap()
            .report;
        let otsu = synthesize_kernel(&half_probability(), &HlsOptions::default())
            .unwrap()
            .report;
        // The paper's Table II signature: histogram has BRAM but no DSPs;
        // otsuMethod claims DSPs (multiplies) and far more LUTs (dividers).
        assert_eq!(hist.resources.dsp, 0);
        assert!(hist.resources.bram18 >= 1);
        assert!(otsu.resources.dsp >= 1);
        assert!(otsu.resources.lut > hist.resources.lut);
    }
}
