//! **Ext-5** (beyond the paper): multi-board partitioning and
//! whole-system co-simulation. The paper's flow targets exactly one
//! Zynq-7020; this sweep replicates its Otsu chain `scale`× until the
//! design overflows the part, cuts it across a budget of boards joined
//! by modeled serial stream links, and co-simulates the whole system.
//! Reports the cut (boards used, cut edges/bytes, worst utilization),
//! the co-sim makespan and link stall time, and the functional
//! cross-check (every chain pixel-exact against the scalar reference —
//! the single-board oracle); then verifies determinism (byte-identical
//! `PartitionSimReport` across host thread counts).
//!
//! ```text
//! repro_multiboard [--side N] [--seed S] [--json <file>]
//! ```
//!
//! `--json` additionally writes a versioned machine-readable record
//! (schema `accelsoc-bench-multiboard/2`), e.g. `BENCH_multiboard.json`.
//! Every field is virtual time or a plan property except each sweep
//! row's `host_wall_s` (host seconds for the whole run: HTG, packer,
//! co-simulation and functional chains, on one host thread) and
//! `host_chains_per_s` (chains run per host second; 0 for a refused
//! run, which runs none).

use accelsoc_bench::{save_json, Table};
use accelsoc_partition::{run_partition_sim, PartitionSimError, PartitionSimOptions};
use std::time::Instant;

const SCALES: [usize; 4] = [1, 4, 16, 48];
const BOARDS: [usize; 4] = [1, 2, 4, 8];

fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn opts(scale: usize, boards: usize, side: u32, seed: u64, threads: usize) -> PartitionSimOptions {
    PartitionSimOptions::builder()
        .scale(scale)
        .max_boards(boards)
        .side(side)
        .seed(seed)
        .threads(threads)
        .build()
}

fn error_kind(e: &PartitionSimError) -> &'static str {
    match e {
        PartitionSimError::TileTooLarge { .. } => "TileTooLarge",
        PartitionSimError::TooManyPixels { .. } => "TooManyPixels",
        PartitionSimError::Plan(_) => "Plan",
        PartitionSimError::Sim(_) => "Sim",
        PartitionSimError::Exec(_) => "Exec",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let side = arg_u64(&args, "--side", 32) as u32;
    let seed = arg_u64(&args, "--seed", 1);
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut table = Table::new(vec![
        "scale",
        "budget",
        "boards",
        "cut",
        "cut (B)",
        "worst util",
        "makespan (ms)",
        "link stall (ms)",
        "exact",
        "host (s)",
    ]);
    let mut sweeps = Vec::new();
    for &scale in &SCALES {
        // Per-scale golden: the functional chain results must not depend
        // on how many boards the timing model spreads the design over.
        let mut golden: Option<Vec<u64>> = None;
        for &boards in &BOARDS {
            let start = Instant::now();
            let result = run_partition_sim(&opts(scale, boards, side, seed, 1));
            let host_wall_s = start.elapsed().as_secs_f64();
            match result {
                Ok(r) => {
                    assert!(
                        r.pixel_exact,
                        "scale {scale} on {boards} boards diverged from the scalar reference"
                    );
                    let checksums: Vec<u64> = r.chains.iter().map(|c| c.checksum).collect();
                    match &golden {
                        None => golden = Some(checksums),
                        Some(g) => assert_eq!(
                            g, &checksums,
                            "scale {scale}: function depends on the board budget"
                        ),
                    }
                    let worst = r
                        .plan
                        .boards
                        .iter()
                        .map(|b| b.utilization)
                        .fold(0.0, f64::max);
                    table.row(vec![
                        scale.to_string(),
                        boards.to_string(),
                        r.plan.board_count().to_string(),
                        r.plan.cut_edges().to_string(),
                        r.plan.cut_bytes.to_string(),
                        format!("{:.1}%", 100.0 * worst),
                        format!("{:.3}", r.sim.makespan_ns / 1e6),
                        format!("{:.3}", r.sim.link_stall_ps as f64 / 1e9),
                        r.pixel_exact.to_string(),
                        format!("{host_wall_s:.4}"),
                    ]);
                    sweeps.push(serde_json::json!({
                        "scale": scale,
                        "budget": boards,
                        "boards_used": r.plan.board_count(),
                        "cut_edges": r.plan.cut_edges(),
                        "cut_bytes": r.plan.cut_bytes,
                        "worst_utilization": worst,
                        "makespan_ps": r.sim.makespan_ps,
                        "link_stall_ps": r.sim.link_stall_ps,
                        "links": r.sim.links,
                        "pixel_exact": r.pixel_exact,
                        "host_wall_s": host_wall_s,
                        "host_chains_per_s": r.chains.len() as f64 / host_wall_s,
                    }));
                }
                Err(e) => {
                    table.row(vec![
                        scale.to_string(),
                        boards.to_string(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("{}: over budget", error_kind(&e)),
                        format!("{host_wall_s:.4}"),
                    ]);
                    sweeps.push(serde_json::json!({
                        "scale": scale,
                        "budget": boards,
                        "error_kind": error_kind(&e),
                        "error": e.to_string(),
                        "host_wall_s": host_wall_s,
                        "host_chains_per_s": 0.0,
                    }));
                }
            }
        }
    }

    // Determinism cross-check: one multi-board config, functional layer
    // on 1, 2 and 4 host threads — the serialized PartitionSimReport
    // must be byte-identical.
    let det: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            serde_json::to_string(&run_partition_sim(&opts(16, 4, side, seed, t)).unwrap()).unwrap()
        })
        .collect();
    assert_eq!(det[0], det[1], "PartitionSimReport differs: threads 1 vs 2");
    assert_eq!(det[0], det[2], "PartitionSimReport differs: threads 1 vs 4");

    println!("== Ext-5: multi-board partitioning ({side}×{side} px chains, seed {seed}) ==\n");
    print!("{}", table.render());
    println!("\nShape: scale 1 fits one board (no cut, no links). As the chain");
    println!("replicates past a 7020's LUTs, the packer opens boards up to the");
    println!("budget; a budget of 1 is a typed over-budget error, never a wrong");
    println!("answer. Pixel results are byte-identical to the scalar reference");
    println!("at every scale and budget — the cut changes *when*, never *what*.");
    println!(
        "\ndeterminism : PartitionSimReport byte-identical across threads 1/2/4 ({} bytes)",
        det[0].len()
    );

    let doc = serde_json::json!({
        "schema": "accelsoc-bench-multiboard/2",
        "side": side,
        "seed": seed,
        "scales_swept": SCALES,
        "budgets_swept": BOARDS,
        "device": "xc7z020clg484-1",
        "sweeps": sweeps,
        "determinism": {
            "threads": [1, 2, 4],
            "byte_identical": true,
            "report_bytes": det[0].len(),
        },
    });
    let p = save_json("multiboard", &doc);
    println!("record: {}", p.display());
    if let Some(path) = json_path {
        std::fs::write(&path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
            .expect("write --json output");
        println!("json   : {path}");
    }
}
