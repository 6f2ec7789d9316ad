//! **Ext-2** (the paper's declared future work): automatic design-space
//! exploration over all 16 hardware/software partitions of the Otsu task
//! chain. Reports every point, marks the paper's four hand-picked
//! architectures, and prints the area/runtime Pareto front.

//! Candidate evaluation fans out over scoped worker threads
//! (`exhaustive_parallel`), which is bit-identical to the sequential
//! sweep; `--cache-dir <dir>` persists the four kernel HLS runs that
//! feed the cost model, so repeated sweeps skip synthesis entirely.

use accelsoc_apps::archs::Arch;
use accelsoc_bench::{save_json, Table};
use accelsoc_dse::otsu::otsu_chain_model_cached;
use accelsoc_dse::pareto::pareto_front;
use accelsoc_dse::search::{exhaustive_parallel, greedy};
use accelsoc_hls::cache::HlsCache;
use accelsoc_observe::NullObserver;
use std::path::PathBuf;

fn main() {
    let mut cache_dir: Option<PathBuf> = None;
    let mut threads: usize = std::thread::available_parallelism().map_or(4, |n| n.get());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cache-dir" if i + 1 < args.len() => {
                cache_dir = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--threads" if i + 1 < args.len() => {
                threads = args[i + 1].parse().expect("--threads takes a number");
                i += 2;
            }
            other => {
                eprintln!("usage: repro_dse [--cache-dir <dir>] [--threads <n>]  (got `{other}`)");
                std::process::exit(2);
            }
        }
    }
    let cache = match cache_dir {
        Some(dir) => HlsCache::persistent(dir),
        None => HlsCache::in_memory(),
    };
    let pixels = 512 * 512;
    let model = otsu_chain_model_cached(pixels, &cache, &NullObserver);
    let mut points = exhaustive_parallel(&model, threads);
    points.sort_by(|a, b| a.runtime_ns.partial_cmp(&b.runtime_ns).unwrap());

    // Design points list their hardware tasks sorted by name.
    let label_of = |hw: &[String]| -> String {
        Arch::all()
            .into_iter()
            .find(|arch| {
                let mut t = arch.hw_tasks().to_vec();
                t.sort_unstable();
                hw.iter().map(String::as_str).eq(t)
            })
            .map(|arch| format!(" <- Table I {}", arch.name()))
            .unwrap_or_default()
    };

    let front = pareto_front(&points);
    let mut table = Table::new(vec![
        "runtime (ms)",
        "LUT",
        "BRAM",
        "DSP",
        "crossings",
        "hw set",
    ]);
    for p in &points {
        let on_front = front.iter().any(|f| f.hw_tasks == p.hw_tasks);
        let marker = if on_front { "*" } else { " " };
        table.row(vec![
            format!("{}{:.2}", marker, p.runtime_ns / 1e6),
            p.area.lut.to_string(),
            p.area.bram18.to_string(),
            p.area.dsp.to_string(),
            p.crossings.to_string(),
            format!("{{{}}}{}", p.hw_tasks.join(","), label_of(&p.hw_tasks)),
        ]);
    }
    println!("== Ext-2: exhaustive DSE over all 16 partitions (512x512 image) ==");
    println!("   (* = on the area/runtime Pareto front)\n");
    print!("{}", table.render());

    println!("\nPareto front ({} points):", front.len());
    for p in &front {
        println!(
            "  {:>8.2} ms @ {:>6} LUT  {{{}}}",
            p.runtime_ns / 1e6,
            p.area.lut,
            p.hw_tasks.join(",")
        );
    }

    let traj = greedy(&model);
    println!("\nGreedy trajectory (gain-per-LUT accretion):");
    for p in &traj {
        println!(
            "  {:>8.2} ms @ {:>6} LUT  {{{}}}",
            p.runtime_ns / 1e6,
            p.area.lut,
            p.hw_tasks.join(",")
        );
    }
    let p = save_json(
        "dse",
        &serde_json::json!({
            "points": points.len(),
            "front": front,
            "greedy_steps": traj.len(),
        }),
    );
    println!("\nrecord: {}", p.display());
}
