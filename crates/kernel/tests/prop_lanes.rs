//! Differential property test for the batch-lane VM: on the four real
//! Otsu kernels, the Fig. 4 demo cores (`ADD`, `MUL`, `GAUSS`, `EDGE`,
//! the CLI's built-ins) and the two line-buffer stencils (`GAUSS2D`,
//! `SOBEL2D`), lane `l` of a `run_batch` over K ∈ {1, 2, 4, 8} lanes is
//! byte-identical to running that lane's inputs alone through the
//! tree-walking interpreter (the oracle) — same scalar outputs, same
//! `ExecStats`, same output-stream tokens, same leftover input tokens,
//! and the same typed error when a lane traps. The K = 1 row is the
//! one-lane path every single invocation (`CompiledKernel::run`) takes.
//!
//! The generated input space deliberately includes the awkward lanes:
//! under-fed streams (`n` larger than the fed token count → stream
//! underflow mid-loop), missing scalar inputs (a lane that retires
//! before its first bundle effect), empty streams, and step limits small
//! enough to trip `StepLimit` partway through — all of which must retire
//! one lane without disturbing its siblings.

use accelsoc_apps::kernels;
use accelsoc_kernel::compile::CompiledKernel;
use accelsoc_kernel::interp::{ExecError, ExecOutcome, Interpreter, StreamBundle};
use accelsoc_kernel::ir::Kernel;
use proptest::prelude::*;
use std::collections::HashMap;

/// Splitmix64 over the proptest case seed (same scheme as prop_vm.rs).
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Per-lane invocation: scalar inputs plus stream feeds.
#[derive(Debug, Clone)]
struct LaneCase {
    inputs: HashMap<String, i64>,
    feeds: Vec<(String, Vec<i64>)>,
}

/// A random invocation of `kernel`, biased toward valid runs but with
/// deliberate probability mass on underruns and missing scalars.
fn lane_case(g: &mut Gen, kernel: &Kernel) -> LaneCase {
    let mut inputs = HashMap::new();
    // Token count the streams are sized for.
    let m = g.below(48) as i64;
    for p in &kernel.params {
        if matches!(p.kind, accelsoc_kernel::ir::ParamKind::ScalarIn) {
            // 6%: leave the scalar unset — the lane must retire with
            // MissingScalarInput before any bundle effect.
            if g.chance(94) {
                let v = if p.name == "A" || p.name == "B" {
                    // The Fig. 4 scalar cores' operands: the whole u32
                    // range and past it, so the sum and product wrap.
                    g.below(1 << 34) as i64 - (1 << 33)
                } else if p.name == "W" {
                    // The stencils' row width: small enough that the
                    // column counter wraps several rows within one
                    // feed (0 never wraps).
                    g.below(17) as i64
                } else if g.chance(10) {
                    // 10%: claim more tokens than will be fed (underrun).
                    m + 1 + g.below(8) as i64
                } else {
                    m
                };
                inputs.insert(p.name.clone(), v);
            }
        }
    }
    let mut feeds = Vec::new();
    for p in &kernel.params {
        if matches!(p.kind, accelsoc_kernel::ir::ParamKind::StreamIn) {
            let tokens: Vec<i64> = if p.name == "otsuThreshold" {
                vec![g.below(256) as i64]
            } else if p.name == "histogram" {
                // halfProbability walks all 256 bins; short-feed it
                // sometimes to hit underflow inside its column loops.
                let bins = if g.chance(85) { 256 } else { g.below(256) };
                (0..bins).map(|_| g.below(50) as i64).collect()
            } else {
                (0..m).map(|_| g.below(1 << 24) as i64).collect()
            };
            // 8%: don't feed the port at all.
            if g.chance(92) {
                feeds.push((p.name.clone(), tokens));
            }
        }
    }
    LaneCase { inputs, feeds }
}

fn bundle_of(case: &LaneCase) -> StreamBundle {
    let mut b = StreamBundle::new();
    for (port, tokens) in &case.feeds {
        b.feed(port, tokens.iter().copied());
    }
    b
}

fn assert_same(
    tag: &str,
    seed: u64,
    a: &Result<ExecOutcome, ExecError>,
    b: &Result<ExecOutcome, ExecError>,
    sa: &StreamBundle,
    sb: &StreamBundle,
    feeds: &[(String, Vec<i64>)],
) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            prop_assert_eq!(
                &x.scalar_outputs,
                &y.scalar_outputs,
                "{} seed {}",
                tag,
                seed
            );
            prop_assert_eq!(&x.stats, &y.stats, "{} seed {}", tag, seed);
        }
        (Err(x), Err(y)) => prop_assert_eq!(x, y, "{} seed {}", tag, seed),
        _ => panic!("{tag} seed {seed}: {a:?} vs {b:?}"),
    }
    let ao: Vec<_> = sa.outputs().collect();
    let bo: Vec<_> = sb.outputs().collect();
    prop_assert_eq!(ao, bo, "{} seed {} output streams", tag, seed);
    for (port, _) in feeds {
        prop_assert_eq!(
            sa.input_queue(port),
            sb.input_queue(port),
            "{} seed {} leftover on {}",
            tag,
            seed,
            port
        );
    }
}

fn check_kernel(kernel: &Kernel, seed: u64) {
    let mut g = Gen::new(seed);
    let ck = CompiledKernel::compile(kernel);
    // Small limits trip StepLimit mid-run at a lane-dependent point;
    // the big one lets most lanes finish.
    let limit = *[37u64, 301, 5_000, 50_000_000]
        .iter()
        .find(|_| g.chance(25))
        .unwrap_or(&50_000_000);

    for k in [1usize, 2, 4, 8] {
        let cases: Vec<LaneCase> = (0..k).map(|_| lane_case(&mut g, kernel)).collect();
        let inputs: Vec<HashMap<String, i64>> = cases.iter().map(|c| c.inputs.clone()).collect();
        let mut batch_bundles: Vec<StreamBundle> = cases.iter().map(bundle_of).collect();
        let out = ck.run_batch_with_step_limit(&inputs, &mut batch_bundles, limit);
        prop_assert_eq!(out.lanes.len(), k);

        for (l, case) in cases.iter().enumerate() {
            // Oracle: the tree-walking interpreter on this lane alone.
            let mut oracle_b = bundle_of(case);
            let oracle =
                Interpreter::with_step_limit(kernel, limit).run(&case.inputs, &mut oracle_b);
            assert_same(
                &format!("{}/k{}/lane{} lanes-vs-oracle", kernel.name, k, l),
                seed,
                &out.lanes[l],
                &oracle,
                &batch_bundles[l],
                &oracle_b,
                &case.feeds,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grayscale_lanes_match_oracle(seed in any::<u64>()) {
        check_kernel(&kernels::grayscale(), seed);
    }

    #[test]
    fn histogram_lanes_match_oracle(seed in any::<u64>()) {
        check_kernel(&kernels::compute_histogram(), seed);
    }

    #[test]
    fn half_probability_lanes_match_oracle(seed in any::<u64>()) {
        check_kernel(&kernels::half_probability(), seed);
    }

    #[test]
    fn segment_lanes_match_oracle(seed in any::<u64>()) {
        check_kernel(&kernels::segment(), seed);
    }

    #[test]
    fn add_lanes_match_oracle(seed in any::<u64>()) {
        check_kernel(&kernels::add_core(), seed);
    }

    #[test]
    fn mul_lanes_match_oracle(seed in any::<u64>()) {
        check_kernel(&kernels::mul_core(), seed);
    }

    #[test]
    fn gauss_lanes_match_oracle(seed in any::<u64>()) {
        check_kernel(&kernels::gauss_core(), seed);
    }

    #[test]
    fn edge_lanes_match_oracle(seed in any::<u64>()) {
        check_kernel(&kernels::edge_core(), seed);
    }

    #[test]
    fn gauss2d_lanes_match_oracle(seed in any::<u64>()) {
        check_kernel(&kernels::gauss2d_core(), seed);
    }

    #[test]
    fn sobel2d_lanes_match_oracle(seed in any::<u64>()) {
        check_kernel(&kernels::sobel2d_core(), seed);
    }
}
