//! Case-study binding: build the Otsu [`ChainModel`] from measured data —
//! software times from the kernels' dynamic operation counts + CPU model,
//! hardware times and areas from real HLS runs of the four kernels.
//!
//! The profiles walk [`accelsoc_apps::otsu::STAGES`], the runner's own
//! description of the chain: each stage's kernel, ports and value sizes
//! come from there, and `readImage`/`writeImage` use the runner's I/O
//! cost model.

use crate::model::{ChainModel, TaskProfile};
use accelsoc_apps::otsu::{read_image_ns, write_image_ns, ChainValues, Value, STAGES};
use accelsoc_hls::cache::HlsCache;
use accelsoc_hls::project::HlsOptions;
use accelsoc_hls::resource::ResourceEstimate;
use accelsoc_kernel::CompiledKernel;
use accelsoc_observe::{FlowObserver, NullObserver};
use accelsoc_platform::cpu::Cpu;
use accelsoc_platform::PL_CLK_NS;

/// Build the Otsu chain model for an image of `pixels` pixels.
///
/// Profiles are *measured*: each kernel runs on the lane VM (one lane)
/// over a synthetic token stream of the right shape to get its dynamic
/// operation counts (→ CPU nanoseconds via the A9 model; `ExecStats` are
/// identical on every execution tier) and is synthesized through
/// `accelsoc-hls` to get its II and area (→ PL nanoseconds).
///
/// Synthesis goes through a throwaway in-memory cache; to amortize the
/// four HLS runs across model builds or processes, use
/// [`otsu_chain_model_cached`] with a shared/persistent [`HlsCache`].
pub fn otsu_chain_model(pixels: u64) -> ChainModel {
    otsu_chain_model_cached(pixels, &HlsCache::in_memory(), &NullObserver)
}

/// [`otsu_chain_model`] with the HLS runs routed through `cache` under
/// their content keys: a warm cache (in-memory from a previous build,
/// or persistent via [`HlsCache::persistent`]) skips all four kernel
/// syntheses. Cache events (queries, persisted hits, corrupt entries)
/// go to `observer`. It measures an [`OtsuChainProfile`]; a caller that
/// needs models at several pixel counts measures once and calls
/// [`OtsuChainProfile::model`] per count.
pub fn otsu_chain_model_cached(
    pixels: u64,
    cache: &HlsCache,
    observer: &dyn FlowObserver,
) -> ChainModel {
    OtsuChainProfile::measure(cache, observer).model(pixels)
}

/// Pixels of the synthetic image each kernel's operation counts are
/// measured on.
const PROBE_PIXELS: u64 = 1024;

/// What the chain model measures, none of which depends on the image
/// size: each stage's CPU time on a probe of `PROBE_PIXELS` pixels, and
/// the II and area of its HLS run. [`OtsuChainProfile::model`] scales it
/// to a pixel count.
#[derive(Debug, Clone)]
pub struct OtsuChainProfile {
    /// Per stage of [`STAGES`]: (probe CPU ns, worst II, area).
    stages: Vec<(f64, u64, ResourceEstimate)>,
}

impl OtsuChainProfile {
    /// Measure the chain: each kernel runs on the lane VM (one lane)
    /// over a synthetic token stream of the right shape to get its
    /// dynamic operation counts (→ CPU nanoseconds via the A9 model;
    /// `ExecStats` are identical on every execution tier) and is
    /// synthesized through `cache` to get its II and area.
    pub fn measure(cache: &HlsCache, observer: &dyn FlowObserver) -> Self {
        let opts = HlsOptions::default();
        let cpu = Cpu::cortex_a9();

        // Representative token streams: a small gradient image is enough
        // to profile operation counts per pixel, then scale.
        let probe_gray: Vec<i64> = (0..PROBE_PIXELS as i64).map(|i| i & 0xFF).collect();
        let mut hist = vec![0i64; 256];
        for &g in &probe_gray {
            hist[g as usize] += 1;
        }
        let mut probe = ChainValues::default();
        probe.set(
            Value::Rgb,
            (0..PROBE_PIXELS as i64)
                .map(|i| (i * 79) & 0xFFFFFF)
                .collect(),
        );
        probe.set(Value::Gray, probe_gray);
        probe.set(Value::Histogram, hist);
        probe.set(Value::Threshold, vec![128]);

        let stages = STAGES
            .iter()
            .map(|stage| {
                let kernel = stage.kernel_ir();
                let mut bundle = stage.inputs_from(&probe);
                let out = CompiledKernel::compile(&kernel)
                    .run(&stage.scalars(PROBE_PIXELS), &mut bundle)
                    .expect("profile run");
                let sw = cpu.cycles_for(&out.stats) as f64 * accelsoc_platform::PS_CLK_NS;
                let (r, _hit) = cache
                    .get_or_synthesize(&kernel, &opts, observer)
                    .expect("hls");
                let ii = r
                    .report
                    .loop_iis
                    .iter()
                    .map(|(_, ii)| *ii as u64)
                    .max()
                    .unwrap_or(1);
                (sw, ii, r.report.resources)
            })
            .collect();
        OtsuChainProfile { stages }
    }

    /// The chain model for an image of `pixels` pixels.
    pub fn model(&self, pixels: u64) -> ChainModel {
        let scale = pixels as f64 / PROBE_PIXELS as f64;
        let io_task = |name: &str, sw_ns: f64, input_bytes: u64, output_bytes: u64| TaskProfile {
            name: name.into(),
            sw_ns,
            hw_ns: f64::INFINITY,
            area: ResourceEstimate::ZERO,
            input_bytes,
            output_bytes,
            sw_only: true,
        };
        let mut profiles = vec![io_task(
            "readImage",
            read_image_ns(pixels),
            0,
            Value::Rgb.bytes(pixels),
        )];
        for (stage, &(sw, ii, area)) in STAGES.iter().zip(&self.stages) {
            // A stage that loops over `n` pixels scales from the probe;
            // otsuMethod's fixed 256-bin work does not.
            let sw_ns = if stage.takes_n { sw * scale } else { sw };
            let stream = stage.inputs[0].1;
            profiles.push(TaskProfile {
                name: stage.task.into(),
                sw_ns,
                hw_ns: (40 + ii * stream.tokens(pixels)) as f64 * PL_CLK_NS,
                area,
                input_bytes: stream.bytes(pixels),
                output_bytes: stage.output.1.bytes(pixels),
                sw_only: false,
            });
        }
        profiles.push(io_task(
            "writeImage",
            write_image_ns(pixels),
            Value::Segmented.bytes(pixels),
            0,
        ));

        ChainModel {
            tasks: profiles,
            dma_ns_per_byte: 0.35, // ≈ 2.8 GB/s effective on one HP port
            dma_setup_ns: 500.0,
            // One AXI DMA + two interconnects + reset (cf. the assembler).
            infra_area: ResourceEstimate::new(2_600, 3_400, 2, 0),
            capacity: ResourceEstimate::new(53_200, 106_400, 280, 220),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::pareto_front;
    use crate::search::{exhaustive, greedy};
    use std::collections::HashSet;

    fn model() -> ChainModel {
        otsu_chain_model(512 * 512)
    }

    #[test]
    fn cached_model_matches_uncached_and_reuses_hls() {
        use accelsoc_observe::{CollectObserver, FlowEvent};

        let cache = HlsCache::in_memory();
        let a = otsu_chain_model(64 * 64);
        let b = otsu_chain_model_cached(64 * 64, &cache, &NullObserver);
        assert_eq!(cache.len(), 4, "four Otsu kernels synthesized once each");
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.sw_ns.to_bits(), y.sw_ns.to_bits());
            assert_eq!(x.hw_ns.to_bits(), y.hw_ns.to_bits());
            assert_eq!(x.area, y.area);
        }

        // Warm rebuild from the same cache: every HLS lookup hits.
        let obs = CollectObserver::new();
        let c = otsu_chain_model_cached(64 * 64, &cache, &obs);
        let (hits, misses) = obs.events().iter().fold((0, 0), |(h, m), e| match e {
            FlowEvent::HlsCacheQuery { hit: true, .. } => (h + 1, m),
            FlowEvent::HlsCacheQuery { hit: false, .. } => (h, m + 1),
            _ => (h, m),
        });
        assert_eq!((hits, misses), (4, 0));
        for (x, y) in b.tasks.iter().zip(&c.tasks) {
            assert_eq!(x.hw_ns.to_bits(), y.hw_ns.to_bits());
        }
    }

    /// The chain model as it was measured per pixel count before the
    /// pixel-independent profile was split out of it.
    fn model_measured_per_pixel_count(pixels: u64) -> ChainModel {
        let cache = HlsCache::in_memory();
        let opts = HlsOptions::default();
        let cpu = Cpu::cortex_a9();
        let probe_pixels = 1024u64;
        let scale = pixels as f64 / probe_pixels as f64;
        let probe_gray: Vec<i64> = (0..probe_pixels as i64).map(|i| i & 0xFF).collect();
        let mut hist = vec![0i64; 256];
        for &g in &probe_gray {
            hist[g as usize] += 1;
        }
        let mut probe = ChainValues::default();
        probe.set(
            Value::Rgb,
            (0..probe_pixels as i64)
                .map(|i| (i * 79) & 0xFFFFFF)
                .collect(),
        );
        probe.set(Value::Gray, probe_gray);
        probe.set(Value::Histogram, hist);
        probe.set(Value::Threshold, vec![128]);
        let io_task = |name: &str, sw_ns: f64, input_bytes: u64, output_bytes: u64| TaskProfile {
            name: name.into(),
            sw_ns,
            hw_ns: f64::INFINITY,
            area: ResourceEstimate::ZERO,
            input_bytes,
            output_bytes,
            sw_only: true,
        };
        let mut tasks = vec![io_task(
            "readImage",
            read_image_ns(pixels),
            0,
            Value::Rgb.bytes(pixels),
        )];
        for stage in &STAGES {
            let kernel = stage.kernel_ir();
            let mut bundle = stage.inputs_from(&probe);
            let out = CompiledKernel::compile(&kernel)
                .run(&stage.scalars(probe_pixels), &mut bundle)
                .unwrap();
            let sw = cpu.cycles_for(&out.stats) as f64 * accelsoc_platform::PS_CLK_NS;
            let sw_ns = if stage.takes_n { sw * scale } else { sw };
            let (r, _) = cache
                .get_or_synthesize(&kernel, &opts, &NullObserver)
                .unwrap();
            let ii = r
                .report
                .loop_iis
                .iter()
                .map(|(_, ii)| *ii as u64)
                .max()
                .unwrap_or(1);
            let stream = stage.inputs[0].1;
            tasks.push(TaskProfile {
                name: stage.task.into(),
                sw_ns,
                hw_ns: (40 + ii * stream.tokens(pixels)) as f64 * PL_CLK_NS,
                area: r.report.resources,
                input_bytes: stream.bytes(pixels),
                output_bytes: stage.output.1.bytes(pixels),
                sw_only: false,
            });
        }
        tasks.push(io_task(
            "writeImage",
            write_image_ns(pixels),
            Value::Segmented.bytes(pixels),
            0,
        ));
        ChainModel {
            tasks,
            dma_ns_per_byte: 0.35,
            dma_setup_ns: 500.0,
            infra_area: ResourceEstimate::new(2_600, 3_400, 2, 0),
            capacity: ResourceEstimate::new(53_200, 106_400, 280, 220),
        }
    }

    /// One measured profile gives, at every pixel count, the model that
    /// measuring at that count gave: every field of every task bit for
    /// bit.
    #[test]
    fn one_profile_models_every_pixel_count_bit_exactly() {
        let profile = OtsuChainProfile::measure(&HlsCache::in_memory(), &NullObserver);
        for pixels in [
            1,
            255,
            256,
            576,
            1024,
            1025,
            17 * 17,
            64 * 64,
            512 * 512,
            1448 * 1448,
        ] {
            let (got, want) = (
                profile.model(pixels),
                model_measured_per_pixel_count(pixels),
            );
            assert_eq!(got.tasks.len(), want.tasks.len());
            for (g, w) in got.tasks.iter().zip(&want.tasks) {
                let at = format!("{} at {pixels} px", w.name);
                assert_eq!(g.name, w.name, "{at}");
                assert_eq!(g.sw_ns.to_bits(), w.sw_ns.to_bits(), "{at}");
                assert_eq!(g.hw_ns.to_bits(), w.hw_ns.to_bits(), "{at}");
                assert_eq!(g.area, w.area, "{at}");
                assert_eq!(g.input_bytes, w.input_bytes, "{at}");
                assert_eq!(g.output_bytes, w.output_bytes, "{at}");
                assert_eq!(g.sw_only, w.sw_only, "{at}");
            }
            assert_eq!(
                got.dma_ns_per_byte.to_bits(),
                want.dma_ns_per_byte.to_bits()
            );
            assert_eq!(got.dma_setup_ns.to_bits(), want.dma_setup_ns.to_bits());
            assert_eq!(got.infra_area, want.infra_area);
            assert_eq!(got.capacity, want.capacity);
        }
    }

    #[test]
    fn table1_architectures_are_among_the_16_points() {
        let m = model();
        let pts = exhaustive(&m);
        assert_eq!(pts.len(), 16);
        for arch_hw in [
            vec!["histogram"],
            vec!["otsuMethod"],
            vec!["histogram", "otsuMethod"],
            vec!["binarization", "grayScale", "histogram", "otsuMethod"],
        ] {
            let found = pts
                .iter()
                .any(|p| p.hw_tasks.iter().map(|s| s.as_str()).collect::<Vec<_>>() == arch_hw);
            assert!(found, "missing {arch_hw:?}");
        }
    }

    #[test]
    fn offload_economics_have_the_right_shape() {
        let m = model();
        let none = m.evaluate(&HashSet::new());
        // grayScale is fully pipelined (II = 1): offloading it beats the
        // CPU even at the 6.7× clock disadvantage.
        let gray = m.evaluate(&HashSet::from(["grayScale"]));
        assert!(gray.runtime_ns < none.runtime_ns, "II=1 task wins in HW");
        // histogram carries an II=3 memory recurrence: 100 MHz × II 3 vs a
        // 667 MHz CPU is near break-even — offloading it alone must not be
        // a dramatic win (this is why the paper's DSE question is real).
        let hist = m.evaluate(&HashSet::from(["histogram"]));
        let gain = none.runtime_ns - hist.runtime_ns;
        assert!(
            gain.abs() < 0.5 * none.runtime_ns,
            "near break-even, gain={gain}"
        );
        // The full pipeline overlaps all four stages and one DMA pass:
        // fastest of the Table I points.
        let all = m.evaluate(&HashSet::from([
            "grayScale",
            "histogram",
            "otsuMethod",
            "binarization",
        ]));
        for subset in [
            HashSet::from(["histogram"]),
            HashSet::from(["otsuMethod"]),
            HashSet::from(["histogram", "otsuMethod"]),
        ] {
            let p = m.evaluate(&subset);
            assert!(
                all.runtime_ns < p.runtime_ns,
                "Arch4 beats {:?}",
                p.hw_tasks
            );
        }
    }

    #[test]
    fn front_is_nonempty_and_anchored() {
        let m = model();
        let front = pareto_front(&exhaustive(&m));
        assert!(!front.is_empty());
        assert!(front.iter().any(|p| p.hw_tasks.is_empty()), "all-SW anchor");
        assert!(
            front.len() >= 3,
            "several useful tradeoffs: {}",
            front.len()
        );
    }

    #[test]
    fn greedy_matches_exhaustive_best_runtime_within_factor() {
        let m = model();
        let best = exhaustive(&m)
            .into_iter()
            .filter(|p| p.feasible)
            .min_by(|a, b| a.runtime_ns.partial_cmp(&b.runtime_ns).unwrap())
            .unwrap();
        let last = greedy(&m).pop().unwrap();
        assert!(last.runtime_ns <= best.runtime_ns * 1.5);
    }

    #[test]
    fn all_16_points_fit_zynq7020() {
        // The paper synthesized all four architectures successfully; our
        // whole space fits too (the device is much bigger than the app).
        let m = model();
        assert!(exhaustive(&m).iter().all(|p| p.feasible));
    }
}
