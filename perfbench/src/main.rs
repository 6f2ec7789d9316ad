//! The repository benchmark: host-time throughput, set-up time and memory
//! of the serve, cluster and multi-board simulators, each checked for an
//! unchanged simulated output, plus a traced per-layer breakdown.
//!
//! ```text
//! perfbench --workload <serve_fresh|cluster_pooled|partition_x48>
//!           [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]
//! ```
//!
//! Every number is host time unless it says otherwise. `jobs_per_s` is
//! taken at the fastest pass of the run, `setup_s` is the median set-up.
//! Simulated statistics repeat exactly for a seed, so they are checked as
//! output identity (a digest of the serialized report), never timed. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod kernels;
mod trace;
mod traced;
mod workloads;

use accelsoc_observe::NullObserver;
use host::{median, metadata_line, peak_rss_mb, percentile};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Kind, Size, Workload, ALT_THREADS, THREADS};

/// The seed used when none is given, and a second one held out for
/// confirming later claims on inputs no change was tuned against.
const DEFAULT_SEED: u64 = 42;
const HOLDOUT_SEED: u64 = 1_000_003;

/// Fewest set-ups per run (a burst follows each pass); `setup_s` is their
/// median.
const SETUP_REPS: usize = 21;
/// Set-ups after each pass.
const SETUPS_PER_PASS: usize = 3;
/// Passes a run makes even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;

/// Pinned output digests: `<workload> <size> <seed> <hex digest>`.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

const END_TO_END: [(&str, &str); 3] = [
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, printed on every workload (0 where the layer
/// does not run). Kept in the order of `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 44] = [
    ("core.dsl_compile_s", "s"),
    ("hls.hls_s", "s"),
    ("integration.project_gen_s", "s"),
    ("integration.synthesis_s", "s"),
    ("integration.implementation_s", "s"),
    ("swgen.swgen_s", "s"),
    ("hls.cache_hit_ratio", "ratio"),
    ("kernel.compile_s", "s"),
    ("kernel.interp_ir_ops_per_s", "1/s"),
    ("kernel.scalar_ir_ops_per_s", "1/s"),
    ("kernel.lane_ir_ops_per_s", "1/s"),
    ("kernel.ops_per_dispatch", "ratio"),
    ("kernel.replay_ir_ops", "count"),
    ("apps.group_s.arch1.p50", "s"),
    ("apps.group_s.arch1.p99", "s"),
    ("apps.group_s.arch1.n", "count"),
    ("apps.group_s.arch4.p50", "s"),
    ("apps.group_s.arch4.p99", "s"),
    ("apps.group_s.arch4.n", "count"),
    ("apps.ir_ops", "count"),
    ("apps.vm_dispatches", "count"),
    ("platform.sim_phases", "count"),
    ("platform.dma_bursts", "count"),
    ("platform.stall_cycles", "count"),
    ("platform.multiboard_s", "s"),
    ("serve.precompute_s", "s"),
    ("serve.unique_sims", "count"),
    ("serve.sims_per_job", "ratio"),
    ("serve.loop_s", "s"),
    ("serve.loop_ns_per_job", "ns"),
    ("serve.batches", "count"),
    ("serve.forwarded", "count"),
    ("serve.stolen", "count"),
    ("serve.shed", "count"),
    ("serve.redispatched", "count"),
    ("serve.report_ser_s", "s"),
    ("partition.htg_s", "s"),
    ("partition.pack_s", "s"),
    ("partition.functional_s", "s"),
    ("partition.report_ser_s", "s"),
    ("observe.trace_overhead", "ratio"),
    ("observe.pass_s", "s"),
    ("observe.uncovered_s", "s"),
    ("observe.uncovered_frac", "ratio"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut a = Args {
        kind: Kind::ServeFresh,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "`--seed` needs an unsigned integer")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "`--seconds` needs a number")?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("`--seconds` must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` is 0 or 1".into()),
                }
            }
            "--size" => {
                let v = value()?;
                a.size = Size::parse(v).ok_or(format!("unknown size `{v}`"))?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    a.kind = kind.ok_or("`--workload` is required")?;
    Ok(a)
}

/// The pinned digest for this workload, size and seed, if any.
fn pinned_digest(w: &Workload) -> Option<u64> {
    EXPECTED_DIGESTS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 4
                && f[0] == w.kind.name()
                && f[1] == w.size.name()
                && f[2].parse() == Ok(w.seed))
            .then(|| u64::from_str_radix(f[3], 16).ok())
            .flatten()
        })
}

/// One metric in the result line; non-finite values cannot be JSON.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("{name:?}: {{\"value\": {value:?}, \"unit\": {unit:?}}}")
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The end-to-end run: tracing off, closed loop for `seconds`.
fn untraced(w: &Workload, seconds: f64, pinned: Option<u64>) -> Result<String, String> {
    // Output identity across host thread counts: one pass at the other
    // thread count fixes the digest every timed pass must reproduce.
    let (mut attempted, mut failed) = (1u64, 0u64);
    let mut reference = pinned;
    match w.pass(ALT_THREADS, &NullObserver) {
        Ok(p) => {
            if !p.report.invariant_ok() || pinned.is_some_and(|d| d != p.digest) {
                failed += 1;
            }
            reference.get_or_insert(p.digest);
        }
        Err(e) => {
            eprintln!("pass failed: {e}");
            failed += 1;
        }
    }

    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed() < Duration::from_secs_f64(seconds) {
        passes += 1;
        attempted += 1;
        match w.pass(THREADS, &NullObserver) {
            Ok(p) => {
                let expect = *reference.get_or_insert(p.digest);
                if p.digest != expect || !p.report.invariant_ok() {
                    failed += 1;
                }
                walls.push(p.wall_s);
            }
            Err(e) => {
                eprintln!("pass failed: {e}");
                failed += 1;
            }
        }
        // Set-ups are spread over the run so their median sees the same
        // host conditions as the passes.
        for _ in 0..SETUPS_PER_PASS {
            setups.push(w.setup()?);
        }
    }
    while setups.len() < SETUP_REPS {
        setups.push(w.setup()?);
    }
    if walls.is_empty() {
        return Err("every pass failed".into());
    }

    // `jobs_per_s` is taken at the fastest pass. The shared host this
    // benchmark was tuned on slows every pass by up to 1.7x for seconds to
    // minutes at a time (neighbour load on the memory system, not steal
    // time: a pass's CPU time grows with its wall time). A run's median
    // follows those phases; its fastest pass of the same deterministic
    // work reads the simulator's own speed. Passes are kept well under a
    // second so that many of them fit in one run.
    let values = [
        w.jobs_per_pass() as f64 / percentile(&walls, 0),
        median(&setups),
        peak_rss_mb().ok_or("no /proc/self/status")?,
    ];
    println!(
        "passes   : {} timed ({} jobs each, threads {}; wall min/p25/p50/p75 {:.4}/{:.4}/{:.4}/{:.4} s) + 1 at threads {}; {} set-ups",
        walls.len(),
        w.jobs_per_pass(),
        THREADS,
        percentile(&walls, 0),
        percentile(&walls, 25),
        median(&walls),
        percentile(&walls, 75),
        ALT_THREADS,
        setups.len()
    );
    println!(
        "digest   : {:016x} ({})",
        reference.unwrap_or_default(),
        if pinned.is_some() {
            "pinned"
        } else {
            "not pinned for this seed; threads 1 vs 2 and pass vs pass only"
        }
    );
    let mut metrics = Vec::new();
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        println!("metric   : {name:<28} {value:>16.6} {unit}");
        metrics.push(metric_json(name, value, unit));
    }
    let failed_frac = failed as f64 / attempted as f64;
    println!("metric   : {:<28} {failed_frac:>16.6} ratio", "failed_frac");
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// The traced run: per-layer numbers, sample counts, coverage.
fn traced_run(w: &Workload, seconds: f64, pinned: Option<u64>) -> Result<String, String> {
    let r = traced::run(w, seconds, pinned)?;
    let dir = std::path::Path::new("target/perfbench");
    let path = dir.join(format!(
        "spans-{}-{}-seed{}.json",
        w.kind.name(),
        w.size.name(),
        w.seed
    ));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &r.spans_json)) {
        Ok(()) => println!("spans    : {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = r.values.get(name).copied();
        if let Some(v) = value {
            println!("layer    : {name:<28} {v:>16.6} {unit}");
        }
        metrics.push(metric_json(name, value.unwrap_or(0.0), unit));
    }
    println!(
        "coverage : uncovered {:.1}% of the pass (median; tolerance {:.0}% in some repetition): {}",
        100.0 * r.values["observe.uncovered_frac"],
        100.0 * traced::COVERAGE_TOLERANCE,
        if r.coverage_ok { "ok" } else { "FAILED" }
    );
    if !r.replays_ok {
        println!("replays  : FAILED (kernel tiers disagree or a lane group failed)");
    }
    let correct = r.failed == 0 && r.coverage_ok && r.replays_ok;
    Ok(result_line(correct, r.attempted, r.failed, &metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <serve_fresh|cluster_pooled|partition_x48> [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let w = Workload::generate(args.kind, args.size, args.seed);
    let pinned = pinned_digest(&w);
    println!(
        "workload : {} (size {}, seed {}; default seed {DEFAULT_SEED}, held-out seed {HOLDOUT_SEED}) trace {}",
        w.kind.name(),
        w.size.name(),
        w.seed,
        u8::from(args.trace)
    );
    println!("{}", metadata_line());
    let result = if args.trace {
        traced_run(&w, args.seconds, pinned)
    } else {
        untraced(&w, args.seconds, pinned)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
