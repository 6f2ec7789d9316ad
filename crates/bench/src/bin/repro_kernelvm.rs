//! Kernel-VM microbenchmark: the tree-walking interpreter vs the
//! compiled kernel (`CompiledKernel::run`, a one-lane batch on the lane
//! VM) over the full Otsu kernel chain
//! (grayScale → computeHistogram → halfProbability → segment),
//! plus a `--lanes` sweep of the batch-lane VM: K distinct images run
//! through one decoded instruction stream with structure-of-arrays
//! register files, measured against width 1 doing the same work one
//! image at a time on one host thread.
//!
//! Every rep first checks the engines agree bit-for-bit (scalar
//! outputs, stream outputs, ExecStats) and then times each engine over
//! identical inputs. The throughput unit is source-level IR operations
//! per second (`ExecStats::steps`, identical for all engines by
//! construction), so every speedup column is a pure execution-engine
//! comparison. `--dump` prints each stage's compiled program instead.

use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::otsu::{self, ChainValues, Value, STAGES};
use accelsoc_bench::{save_json, Table};
use accelsoc_kernel::compile::CompiledKernel;
use accelsoc_kernel::interp::{ExecOutcome, Interpreter, StreamBundle};
use accelsoc_kernel::ir::Kernel;
use std::collections::HashMap;
use std::time::Instant;

fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `--lanes 1,2,4,8` (also accepts a single value like `--lanes 8`).
fn arg_lanes(args: &[String], default: &[usize]) -> Vec<usize> {
    args.iter()
        .position(|a| a == "--lanes")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&k: &usize| k > 0)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// One stage of the chain: a kernel plus its inputs for this image.
struct Stage {
    kernel: Kernel,
    scalars: HashMap<String, i64>,
    inputs: StreamBundle,
}

fn fresh_bundle(stage: &Stage) -> StreamBundle {
    stage.inputs.clone()
}

/// Build the four chained stages from one synthetic image, feeding each
/// stage the previous stage's reference output (computed host-side so
/// every stage is independent and reruns are identical).
fn build_stages(side: u32) -> Vec<Stage> {
    build_stages_seeded(side, 2016)
}

fn build_stages_seeded(side: u32, seed: u64) -> Vec<Stage> {
    let rgb = RgbImage::from_gray(&synthetic_scene(side, side, seed));
    let gray = otsu::grayscale_reference(&rgb);
    let hist = otsu::histogram_reference(&gray);
    let thr = otsu::otsu_threshold_from_hist(&hist);
    let mut values = ChainValues::new(&rgb);
    values.set(Value::Gray, gray.data.iter().map(|&v| v as i64).collect());
    values.set(Value::Histogram, hist.iter().map(|&v| v as i64).collect());
    values.set(Value::Threshold, vec![thr as i64]);
    STAGES
        .iter()
        .map(|stage| Stage {
            kernel: stage.kernel_ir(),
            scalars: stage.scalars(rgb.data.len() as u64),
            inputs: stage.inputs_from(&values),
        })
        .collect()
}

/// Median of `v` (the upper middle element for even lengths).
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn outputs_of(bundle: &StreamBundle) -> Vec<(String, Vec<i64>)> {
    bundle
        .outputs()
        .map(|(p, t)| (p.to_string(), t.to_vec()))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let side = arg_u64(&args, "--side", 64) as u32;
    let reps = arg_u64(&args, "--reps", 20).max(1) as usize;
    let rounds = arg_u64(&args, "--rounds", 9).max(1) as usize;

    let stages = build_stages(side);

    if args.iter().any(|a| a == "--dump") {
        for stage in &stages {
            println!("== {} ==", stage.kernel.name);
            print!("{}", CompiledKernel::compile(&stage.kernel).disasm());
        }
        return;
    }

    // --- correctness gate: engines must agree before anything is timed.
    for stage in &stages {
        let compiled = CompiledKernel::compile(&stage.kernel);
        let mut bi = fresh_bundle(stage);
        let mut bv = fresh_bundle(stage);
        let ri: ExecOutcome = Interpreter::new(&stage.kernel)
            .run(&stage.scalars, &mut bi)
            .expect("interpreter run");
        let rv: ExecOutcome = compiled.run(&stage.scalars, &mut bv).expect("vm run");
        assert_eq!(
            ri.scalar_outputs, rv.scalar_outputs,
            "{}: scalar outputs diverge",
            stage.kernel.name
        );
        assert_eq!(
            ri.stats, rv.stats,
            "{}: ExecStats diverge",
            stage.kernel.name
        );
        assert_eq!(
            outputs_of(&bi),
            outputs_of(&bv),
            "{}: stream outputs diverge",
            stage.kernel.name
        );
    }

    let mut table = Table::new(vec![
        "Kernel",
        "IR ops",
        "interp Mops/s",
        "VM Mops/s",
        "VM speedup",
        "compile (us)",
    ]);
    let mut records = Vec::new();
    let (mut tot_ops, mut tot_interp_s, mut tot_vm_s) = (0u64, 0f64, 0f64);
    for stage in &stages {
        let t0 = Instant::now();
        let compiled = CompiledKernel::compile(&stage.kernel);
        let compile_us = t0.elapsed().as_secs_f64() * 1e6;

        let steps = {
            let mut b = fresh_bundle(stage);
            compiled.run(&stage.scalars, &mut b).unwrap().stats.steps
        };

        let t0 = Instant::now();
        for _ in 0..reps {
            let mut b = fresh_bundle(stage);
            Interpreter::new(&stage.kernel)
                .run(&stage.scalars, &mut b)
                .unwrap();
        }
        let interp_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        for _ in 0..reps {
            let mut b = fresh_bundle(stage);
            compiled.run(&stage.scalars, &mut b).unwrap();
        }
        let vm_s = t0.elapsed().as_secs_f64();

        let ops = steps * reps as u64;
        let interp_mops = ops as f64 / interp_s / 1e6;
        let vm_mops = ops as f64 / vm_s / 1e6;
        let speedup = interp_s / vm_s;
        tot_ops += ops;
        tot_interp_s += interp_s;
        tot_vm_s += vm_s;
        table.row(vec![
            stage.kernel.name.clone(),
            steps.to_string(),
            format!("{interp_mops:.1}"),
            format!("{vm_mops:.1}"),
            format!("{speedup:.2}x"),
            format!("{compile_us:.0}"),
        ]);
        records.push(serde_json::json!({
            "kernel": stage.kernel.name,
            "ir_ops": steps,
            "reps": reps,
            "interp_ops_per_sec": ops as f64 / interp_s,
            "vm_ops_per_sec": ops as f64 / vm_s,
            "speedup": speedup,
            "compile_us": compile_us,
            "bytecode_ops": compiled.len(),
        }));
    }
    let chain_speedup = tot_interp_s / tot_vm_s;

    println!("== Kernel VM vs interpreter over the Otsu chain ({side}x{side}, {reps} reps) ==\n");
    print!("{}", table.render());
    println!(
        "\nchain: {:.1} Mops/s interp vs {:.1} Mops/s VM — {chain_speedup:.2}x overall",
        tot_ops as f64 / tot_interp_s / 1e6,
        tot_ops as f64 / tot_vm_s / 1e6,
    );
    println!("(engines verified bit-identical on outputs and ExecStats before timing)");

    // == batch-lane sweep ==================================================
    // K distinct images through one decoded instruction stream, all four
    // chain stages, single host thread. The width-1 baseline runs the
    // same K images one at a time; both sides are verified against the
    // interpreter oracle per lane before timing.
    let lane_counts = arg_lanes(&args, &[1, 2, 4, 8]);
    let max_k = lane_counts.iter().copied().max().unwrap_or(1);
    let lane_stages: Vec<Vec<Stage>> = (0..max_k)
        .map(|l| build_stages_seeded(side, 2016 + l as u64))
        .collect();
    let compiled: Vec<CompiledKernel> = stages
        .iter()
        .map(|s| CompiledKernel::compile(&s.kernel))
        .collect();

    // Correctness gate: every lane of every batch width bit-identical
    // to the interpreter oracle on that lane's inputs alone.
    for &k in &lane_counts {
        for (s, ck) in compiled.iter().enumerate() {
            let inputs: Vec<HashMap<String, i64>> =
                (0..k).map(|l| lane_stages[l][s].scalars.clone()).collect();
            let mut bundles: Vec<StreamBundle> =
                (0..k).map(|l| fresh_bundle(&lane_stages[l][s])).collect();
            let out = ck.run_batch(&inputs, &mut bundles);
            for l in 0..k {
                let mut ob = fresh_bundle(&lane_stages[l][s]);
                let oracle = Interpreter::new(&lane_stages[l][s].kernel)
                    .run(&inputs[l], &mut ob)
                    .expect("oracle run");
                let lane = out.lanes[l].as_ref().expect("lane run");
                assert_eq!(
                    oracle.scalar_outputs, lane.scalar_outputs,
                    "lane {l}/{k} stage {s}: scalar outputs diverge"
                );
                assert_eq!(
                    oracle.stats, lane.stats,
                    "lane {l}/{k} stage {s}: ExecStats diverge"
                );
                assert_eq!(
                    outputs_of(&ob),
                    outputs_of(&bundles[l]),
                    "lane {l}/{k} stage {s}: stream outputs diverge"
                );
            }
        }
    }

    let mut lane_table = Table::new(vec![
        "lanes",
        "IR ops/rep",
        "width-1 Mops/s",
        "width-K Mops/s",
        "speedup",
        "ops/dispatch",
    ]);
    let mut lane_rows = Vec::new();
    for &k in &lane_counts {
        let mut ops_per_rep = 0u64;
        for lane in lane_stages.iter().take(k) {
            for (s, ck) in compiled.iter().enumerate() {
                let mut b = fresh_bundle(&lane[s]);
                ops_per_rep += ck.run(&lane[s].scalars, &mut b).unwrap().stats.steps;
            }
        }

        // Each round times the two engines back to back (alternating
        // which goes first) and yields one paired ratio; the median
        // over rounds cannot be flipped by a burst of host noise that
        // lands in a minority of rounds.
        let inputs: Vec<Vec<HashMap<String, i64>>> = (0..compiled.len())
            .map(|s| (0..k).map(|l| lane_stages[l][s].scalars.clone()).collect())
            .collect();
        // Width-1 baseline: same images, one lane at a time.
        let time_width1 = || {
            let t0 = Instant::now();
            for _ in 0..reps {
                for lane in lane_stages.iter().take(k) {
                    for (s, ck) in compiled.iter().enumerate() {
                        let mut b = fresh_bundle(&lane[s]);
                        ck.run(&lane[s].scalars, &mut b).unwrap();
                    }
                }
            }
            t0.elapsed().as_secs_f64()
        };
        // Lane VM: one batch per stage.
        let mut dispatches = 0u64;
        let mut time_lanes = || {
            let t0 = Instant::now();
            for _ in 0..reps {
                dispatches = 0;
                for (s, ck) in compiled.iter().enumerate() {
                    let mut bundles: Vec<StreamBundle> =
                        (0..k).map(|l| fresh_bundle(&lane_stages[l][s])).collect();
                    let out = ck.run_batch(&inputs[s], &mut bundles);
                    dispatches += out.dispatches;
                }
            }
            t0.elapsed().as_secs_f64()
        };
        let (mut width1_times, mut lane_times, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..rounds {
            let (width1_s, lane_s) = if round % 2 == 0 {
                let w1 = time_width1();
                (w1, time_lanes())
            } else {
                let ln = time_lanes();
                (time_width1(), ln)
            };
            width1_times.push(width1_s);
            lane_times.push(lane_s);
            ratios.push(width1_s / lane_s);
        }
        let width1_s = median(&mut width1_times);
        let lane_s = median(&mut lane_times);

        let ops = ops_per_rep * reps as u64;
        let width1_ops_s = ops as f64 / width1_s;
        let lane_ops_s = ops as f64 / lane_s;
        let speedup = median(&mut ratios);
        let ops_per_dispatch = ops_per_rep as f64 / dispatches.max(1) as f64;
        lane_table.row(vec![
            k.to_string(),
            ops_per_rep.to_string(),
            format!("{:.1}", width1_ops_s / 1e6),
            format!("{:.1}", lane_ops_s / 1e6),
            format!("{speedup:.2}x"),
            format!("{ops_per_dispatch:.1}"),
        ]);
        lane_rows.push(serde_json::json!({
            "lanes": k,
            "ir_ops_per_rep": ops_per_rep,
            "reps": reps,
            "width1_ops_per_sec": width1_ops_s,
            "lane_vm_ops_per_sec": lane_ops_s,
            "rounds": rounds,
            "speedup_vs_width1": speedup,
            "dispatches_per_rep": dispatches,
            "ops_per_dispatch": ops_per_dispatch,
        }));
    }

    println!("\n== Batch-lane VM sweep (chain x K distinct images, 1 host thread) ==\n");
    print!("{}", lane_table.render());
    println!("\n(each lane verified bit-identical to the interpreter oracle before timing)");
    let p = save_json("kernelvm", &records);
    println!("record: {}", p.display());

    if let Some(path) = json_path {
        let doc = serde_json::json!({
            "schema": "accelsoc-bench-kernelvm/4",
            "side": side,
            "reps": reps,
            "kernels": records,
            "chain_speedup": chain_speedup,
            "chain_interp_ops_per_sec": tot_ops as f64 / tot_interp_s,
            "chain_vm_ops_per_sec": tot_ops as f64 / tot_vm_s,
            "lane_sweep": lane_rows,
        });
        std::fs::write(&path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
            .expect("write --json output");
        println!("json   : {path}");
    }
}
