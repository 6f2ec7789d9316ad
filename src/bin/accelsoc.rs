//! `accelsoc` — the command-line front-end, the analogue of invoking the
//! paper's Scala program on a task-graph description.
//!
//! ```text
//! accelsoc check  <file.tg>                 parse + elaborate only
//! accelsoc fmt    <file.tg>                 pretty-print canonical DSL
//! accelsoc build  <file.tg> [options]       run the full flow, write artifacts
//! accelsoc sim    <file.tg> [--n <tokens>]  build + run data through the board
//! accelsoc serve-sim [options]              multi-tenant serving simulation
//! accelsoc cluster-sim [options]            sharded N-node serving cluster
//! accelsoc partition-sim [options]          multi-board partition + co-sim
//! accelsoc kernels                          list the built-in kernel library
//!
//! build options:
//!   --out <dir>         output directory            [default: ./accelsoc-out]
//!   --backend <v>       tcl dialect: 2014.2|2015.3  [default: 2015.3]
//!   --device <part>     7z020|7z010                 [default: 7z020]
//!   --dma <policy>      shared|per-link             [default: shared]
//!   --cache-dir <dir>   persist HLS results (content-addressed) in <dir>
//!   --no-cache          disable HLS result caching entirely
//!   --trace-json <f>    write a JSON-lines flow trace to <f>
//!   --verbose           log flow events to stderr
//!
//! serve-sim options:
//!   --boards <n>        board pool size                 [default: 2]
//!   --policy <p>        fifo|rr|sjf                     [default: sjf]
//!   --jobs <n>          total jobs across tenants       [default: 32]
//!   --seed <u64>        workload seed                   [default: 42]
//!   --threads <n>       host threads for precompute     [default: 1]
//!   --queue-depth <n>   per-tenant admission queue      [default: 8]
//!   --load <f>          offered load vs pool capacity   [default: 0.8]
//!   --json <file>       write the full ServeReport as JSON
//!   --verbose           log serve events to stderr
//!
//! cluster-sim options (plus the serve-sim set above):
//!   --nodes <n>           cluster size                  [default: 4]
//!   --boards-per-node <n> board pool per node           [default: 2]
//!   --no-steal            disable work stealing
//!   --no-shed             disable shed-forwarding
//!   --kill <node>@<ms>    kill a node at a virtual time (repeatable)
//!   --image-pool <n>      fold image seeds into n distinct inputs
//!
//! partition-sim options:
//!   --boards <n>        board budget                    [default: 2]
//!   --scale <k>         Otsu chain replicas             [default: 16]
//!   --side <px>         image side per chain            [default: 64]
//!   --seed <u64>        image + refinement seed         [default: 1]
//!   --threads <n>       host threads (functional layer) [default: 1]
//!   --json <file>       write the PartitionSimReport as JSON
//!   --verbose           log partition/co-sim events to stderr
//! ```
//!
//! The built-in kernel library holds the case-study and demo kernels
//! (`grayScale`, `computeHistogram`, `halfProbability`, `segment`, `ADD`,
//! `MUL`, `GAUSS`, `EDGE`); DSL nodes are matched to kernels by name.

use accelsoc::core::dsl::{parse, print, PrintStyle};
use accelsoc::core::flow::{FlowEngine, FlowOptions};
use accelsoc::core::semantics::elaborate;
use accelsoc::core::{JsonTraceObserver, LogObserver};
use accelsoc::integration::device::Device;
use accelsoc::integration::tcl::TclBackend;
use accelsoc_integration::assembler::DmaPolicy;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// Report output goes through `write_stdout`: these shadow the std
// macros, which panic when stdout's reader has gone away.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}
macro_rules! println {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write report output to stdout. When the reader has gone away
/// (`accelsoc cluster-sim | head -3`) the write fails with `BrokenPipe`,
/// and the process ends quietly with the status a shell reports for a
/// writer killed by SIGPIPE (128 + 13); any other write error is
/// reported and ends it with status 1.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

fn builtin_kernels() -> Vec<accelsoc::kernel::ir::Kernel> {
    use accelsoc::apps::kernels as k;
    vec![
        k::grayscale(),
        k::compute_histogram(),
        k::half_probability(),
        k::segment(),
        k::add_core(),
        k::mul_core(),
        k::gauss_core(),
        k::edge_core(),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("fmt") => cmd_fmt(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("sim") => cmd_sim(&args[1..]),
        Some("serve-sim") => cmd_serve_sim(&args[1..]),
        Some("cluster-sim") => cmd_cluster_sim(&args[1..]),
        Some("partition-sim") => cmd_partition_sim(&args[1..]),
        Some("kernels") => {
            println!("built-in kernel library:");
            for k in builtin_kernels() {
                let streams = k.params.iter().filter(|p| p.kind.is_stream()).count();
                let scalars = k.params.len() - streams;
                println!(
                    "  {:<18} {scalars} scalar / {streams} stream params",
                    k.name
                );
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: accelsoc <check|fmt|build|sim|serve-sim|cluster-sim|partition-sim|kernels> [args]  (see the README)"
            );
            ExitCode::from(2)
        }
    }
}

fn read_source(args: &[String]) -> Result<(String, PathBuf), ExitCode> {
    let Some(path) = args.first() else {
        eprintln!("error: missing <file.tg> argument");
        return Err(ExitCode::from(2));
    };
    let path = PathBuf::from(path);
    match std::fs::read_to_string(&path) {
        Ok(s) => Ok((s, path)),
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            Err(ExitCode::from(2))
        }
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let (src, path) = match read_source(args) {
        Ok(v) => v,
        Err(c) => return c,
    };
    match parse(&src)
        .map_err(|e| e.to_string())
        .and_then(|g| elaborate(&g).map_err(|e| e.to_string()).map(|e| (g, e)))
    {
        Ok((g, _)) => {
            println!(
                "{}: OK — project `{}`, {} nodes, {} edges ({} stream links, {} via 'soc)",
                path.display(),
                g.project,
                g.nodes.len(),
                g.edges.len(),
                g.links().count(),
                g.soc_link_count()
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{}: error: {msg}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn cmd_fmt(args: &[String]) -> ExitCode {
    let (src, path) = match read_source(args) {
        Ok(v) => v,
        Err(c) => return c,
    };
    match parse(&src) {
        Ok(g) => {
            print!("{}", print(&g, PrintStyle::ScalaObject));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: error: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn cmd_build(args: &[String]) -> ExitCode {
    let (src, path) = match read_source(args) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let mut out_dir = PathBuf::from("accelsoc-out");
    let mut options = FlowOptions::default();
    let mut trace_path: Option<PathBuf> = None;
    let mut verbose = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out_dir = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            "--backend" if i + 1 < args.len() => {
                options.tcl_backend = match args[i + 1].as_str() {
                    "2014.2" => TclBackend::V2014_2,
                    "2015.3" => TclBackend::V2015_3,
                    other => {
                        eprintln!("error: unknown backend `{other}`");
                        return ExitCode::from(2);
                    }
                };
                i += 2;
            }
            "--device" if i + 1 < args.len() => {
                options.device = match args[i + 1].as_str() {
                    "7z020" => Device::zynq7020(),
                    "7z010" => Device::zynq7010(),
                    other => {
                        eprintln!("error: unknown device `{other}` (7z020|7z010)");
                        return ExitCode::from(2);
                    }
                };
                i += 2;
            }
            "--dma" if i + 1 < args.len() => {
                options.dma_policy = match args[i + 1].as_str() {
                    "shared" => DmaPolicy::SharedChannel,
                    "per-link" => DmaPolicy::PerSocLink,
                    other => {
                        eprintln!("error: unknown dma policy `{other}` (shared|per-link)");
                        return ExitCode::from(2);
                    }
                };
                i += 2;
            }
            "--cache-dir" if i + 1 < args.len() => {
                options.cache_dir = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--no-cache" => {
                options.use_cache = false;
                i += 1;
            }
            "--trace-json" if i + 1 < args.len() => {
                trace_path = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--verbose" => {
                verbose = true;
                i += 1;
            }
            // Value-taking flags at the end of the argument list fall
            // through their guarded arms above.
            flag @ ("--out" | "--backend" | "--device" | "--dma" | "--cache-dir"
            | "--trace-json") => {
                eprintln!("error: `{flag}` requires a value");
                return ExitCode::from(2);
            }
            other => {
                eprintln!("error: unknown option `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let mut sinks: Vec<accelsoc::core::SharedObserver> = Vec::new();
    if let Some(trace) = &trace_path {
        match JsonTraceObserver::create(trace) {
            Ok(obs) => sinks.push(std::sync::Arc::new(obs)),
            Err(e) => {
                eprintln!("error: cannot create trace file {}: {e}", trace.display());
                return ExitCode::from(2);
            }
        }
    }
    if verbose {
        sinks.push(std::sync::Arc::new(LogObserver::stderr()));
    }
    if !sinks.is_empty() {
        options.observer = std::sync::Arc::new(accelsoc::core::observe::FanoutObserver::new(sinks));
    }

    let mut engine = FlowEngine::new(options);
    for k in builtin_kernels() {
        engine.register_kernel(k);
    }
    let artifacts = match engine.run_source(&src) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{}: flow error: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };

    if let Some(trace) = &trace_path {
        println!("trace    : {}", trace.display());
    }
    if let Err(e) = write_artifacts(&out_dir, &engine, &artifacts) {
        eprintln!("error writing artifacts: {e}");
        return ExitCode::FAILURE;
    }
    println!("project  : {}", artifacts.elaborated.graph.project);
    println!("resources: {}", artifacts.synth.total);
    println!(
        "timing   : {:.2} ns ({}; Fmax {:.0} MHz)",
        artifacts.timing.achieved_ns,
        if artifacts.timing.met() {
            "met"
        } else {
            "FAILED"
        },
        artifacts.timing.fmax_mhz
    );
    println!("artifacts: {}", out_dir.display());
    for pt in &artifacts.phase_timings {
        println!(
            "  {:<14} modeled {:>7.1}s  measured {:?}",
            pt.phase.to_string(),
            pt.modeled_s,
            pt.actual
        );
    }
    ExitCode::SUCCESS
}

/// Build the design and push a test pattern through its stream pipeline
/// on the simulated board (requires exactly one `'soc` input and one
/// `'soc` output link, i.e. a single-entry single-exit pipeline).
fn cmd_sim(args: &[String]) -> ExitCode {
    let (src, path) = match read_source(args) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let mut n: usize = 64;
    let mut fifo_depth: usize = 16;
    let mut i = 1;
    while i < args.len() {
        let parse_next = |what: &str| -> Result<&String, ExitCode> {
            args.get(i + 1).ok_or_else(|| {
                eprintln!("error: `{what}` requires a value");
                ExitCode::from(2)
            })
        };
        macro_rules! positive {
            ($flag:literal, $slot:ident) => {
                match parse_next($flag).map(|v| v.parse::<usize>()) {
                    Ok(Ok(v)) if v > 0 => {
                        $slot = v;
                        i += 2;
                    }
                    Ok(_) => {
                        eprintln!(concat!("error: `", $flag, "` needs a positive integer"));
                        return ExitCode::from(2);
                    }
                    Err(c) => return c,
                }
            };
        }
        match args[i].as_str() {
            "--n" => positive!("--n", n),
            "--fifo-depth" => positive!("--fifo-depth", fifo_depth),
            other => {
                eprintln!("error: unknown option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    // The n input bytes go to IN_ADDR, the 4n output bytes to OUT_ADDR
    // (room for 32-bit output tokens); both must fit the board's DRAM.
    const DRAM_BYTES: u64 = 64 << 20;
    const IN_ADDR: u64 = 0x1_0000;
    const OUT_ADDR: u64 = 0x8_0000;
    let out_end = (n as u64)
        .checked_mul(4)
        .and_then(|b| b.checked_add(OUT_ADDR));
    if out_end.is_none_or(|end| end > DRAM_BYTES) {
        eprintln!(
            "error: `--n {n}` does not fit the board's {} MiB of DRAM \
             (the output buffer alone is 4n bytes)",
            DRAM_BYTES >> 20
        );
        return ExitCode::from(2);
    }
    let mut engine = FlowEngine::new(FlowOptions::default());
    for k in builtin_kernels() {
        engine.register_kernel(k);
    }
    let art = match engine.run_source(&src) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{}: flow error: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut board = match engine.build_board(&art, DRAM_BYTES as usize) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{}: board error: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    board.stream_fifo_depth = fifo_depth.max(1);
    let data: Vec<u8> = (0..n).map(|i| (i & 0xff) as u8).collect();
    if let Err(e) = board.dram.load_bytes(IN_ADDR, &data) {
        eprintln!("simulation error: {e}");
        return ExitCode::FAILURE;
    }
    // Every streaming node that takes an `n`/`W` scalar gets the count.
    let mut scalar_args: Vec<(usize, &str, i64)> = Vec::new();
    for (idx, (_, r)) in art.hls.iter().enumerate() {
        for (reg, value) in [("n", n as i64), ("W", 8)] {
            if r.report.interface.register(reg).is_some() {
                scalar_args.push((idx, reg, value));
            }
        }
    }
    match board.run_stream_phase(
        &[(
            0,
            accelsoc_axi::dma::DmaDescriptor {
                addr: IN_ADDR,
                len: n as u64,
            },
        )],
        &[(
            0,
            accelsoc_axi::dma::DmaDescriptor {
                addr: OUT_ADDR,
                len: 4 * n as u64,
            },
        )],
        &scalar_args,
    ) {
        Ok(stats) => {
            let out = board
                .dram
                .dump_bytes(OUT_ADDR, n.min(16))
                .unwrap_or_default();
            println!("input  ({n} tokens): {:?}...", &data[..n.min(16)]);
            println!("output (first {}): {:?}", out.len(), out);
            println!(
                "phase: {:.1} µs ({} B in, {} B out); per stage:",
                stats.ns / 1e3,
                stats.bytes_in,
                stats.bytes_out
            );
            for (name, cycles) in &stats.per_stage {
                println!("  {name:<24} {cycles} cycles");
            }
            println!(
                "stalls (fifo depth {fifo_depth}): {} backpressure, {} starvation, {} bus",
                stats.backpressure_stall_cycles,
                stats.starvation_stall_cycles,
                stats.hp_stall_cycles
            );
            // VCD trace for GTKWave.
            match accelsoc::platform::trace::trace_phase(&stats).to_vcd() {
                Ok(vcd) => {
                    std::fs::write("sim.vcd", vcd).ok();
                    println!("waveform: sim.vcd");
                }
                Err(e) => eprintln!("warning: VCD export skipped: {e}"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simulation error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Multi-tenant serving simulation: a seeded synthetic workload of Otsu
/// segmentation jobs scheduled across a pool of simulated boards (see
/// DESIGN.md §10). Deterministic: same seed/policy/boards ⇒ the same
/// report, regardless of `--threads`.
fn cmd_serve_sim(args: &[String]) -> ExitCode {
    use accelsoc::core::observe::{FlowObserver, LogObserver, NullObserver};
    use accelsoc::serve::{PolicyKind, ServeConfig, ServeSession};

    let mut boards: usize = 2;
    let mut policy = PolicyKind::Sjf;
    let mut jobs: usize = 32;
    let mut seed: u64 = 42;
    let mut threads: usize = 1;
    let mut queue_depth: usize = 8;
    let mut load: f64 = 0.8;
    let mut json_path: Option<PathBuf> = None;
    let mut verbose = false;
    let mut i = 0;
    while i < args.len() {
        let parse_next = |what: &str| -> Result<&String, ExitCode> {
            args.get(i + 1).ok_or_else(|| {
                eprintln!("error: `{what}` requires a value");
                ExitCode::from(2)
            })
        };
        match args[i].as_str() {
            "--boards" => match parse_next("--boards").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) if n > 0 => {
                    boards = n;
                    i += 2;
                }
                Ok(_) => {
                    eprintln!("error: `--boards` needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(c) => return c,
            },
            "--policy" => match parse_next("--policy").map(|v| v.parse::<PolicyKind>()) {
                Ok(Ok(p)) => {
                    policy = p;
                    i += 2;
                }
                Ok(Err(e)) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
                Err(c) => return c,
            },
            "--jobs" => match parse_next("--jobs").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) if n > 0 => {
                    jobs = n;
                    i += 2;
                }
                Ok(_) => {
                    eprintln!("error: `--jobs` needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(c) => return c,
            },
            "--seed" => match parse_next("--seed").map(|v| v.parse::<u64>()) {
                Ok(Ok(n)) => {
                    seed = n;
                    i += 2;
                }
                Ok(Err(_)) => {
                    eprintln!("error: `--seed` needs an unsigned integer");
                    return ExitCode::from(2);
                }
                Err(c) => return c,
            },
            "--threads" => match parse_next("--threads").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) if n > 0 => {
                    threads = n;
                    i += 2;
                }
                Ok(_) => {
                    eprintln!("error: `--threads` needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(c) => return c,
            },
            "--queue-depth" => match parse_next("--queue-depth").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) if n > 0 => {
                    queue_depth = n;
                    i += 2;
                }
                Ok(_) => {
                    eprintln!("error: `--queue-depth` needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(c) => return c,
            },
            "--load" => match parse_next("--load").map(|v| v.parse::<f64>()) {
                Ok(Ok(f)) if f > 0.0 => {
                    load = f;
                    i += 2;
                }
                Ok(_) => {
                    eprintln!("error: `--load` needs a positive number");
                    return ExitCode::from(2);
                }
                Err(c) => return c,
            },
            "--json" => match parse_next("--json") {
                Ok(v) => {
                    json_path = Some(PathBuf::from(v));
                    i += 2;
                }
                Err(c) => return c,
            },
            "--verbose" => {
                verbose = true;
                i += 1;
            }
            other => {
                eprintln!("error: unknown option `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let (tenant_names, workload) = match canonical_workload(boards, load, jobs, seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = ServeConfig::builder()
        .tenants(tenant_names)
        .boards(boards)
        .policy(policy)
        .queue_depth(queue_depth)
        .threads(threads)
        .seed(seed)
        .build();
    let log;
    let observer: &dyn FlowObserver = if verbose {
        log = LogObserver::stderr();
        &log
    } else {
        &NullObserver
    };
    let report = match ServeSession::new(cfg).run(&workload, observer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve error: {e}");
            return ExitCode::FAILURE;
        }
    };

    print_serve_report(&report);
    if let Some(path) = &json_path {
        let json = match serde_json::to_string_pretty(&report) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error serializing report: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report   : {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Canonical two-tenant mix: a latency-sensitive tenant on the
/// all-hardware architecture and a best-effort batch tenant on the
/// all-software one (Table I extremes). Offered load scales the arrival
/// rate against total pool capacity: mean interarrival =
/// (mean service estimate / total boards) / load. A load so small that
/// the stream cannot run on the `u64` picosecond clock is refused with a
/// message naming `--load`.
fn canonical_workload(
    total_boards: usize,
    load: f64,
    jobs: usize,
    seed: u64,
) -> Result<(Vec<String>, Vec<accelsoc::serve::JobSpec>), String> {
    use accelsoc::apps::archs::Arch;
    use accelsoc::serve::{generate_workload, DseEstimator, TenantProfile, WorkloadSpec};

    let tenants = vec![
        TenantProfile {
            name: "interactive".into(),
            weight: 2,
            sides: vec![16, 24],
            archs: vec![Arch::Arch4],
            deadline_slack_pct: Some(5_000),
            fault_rate: 0.0,
        },
        TenantProfile {
            name: "batch".into(),
            weight: 1,
            sides: vec![24, 32],
            archs: vec![Arch::Arch1],
            deadline_slack_pct: None,
            fault_rate: 0.0,
        },
    ];
    let mut est = DseEstimator::new();
    let mix: Vec<u64> = tenants
        .iter()
        .flat_map(|t| {
            t.archs
                .iter()
                .flat_map(|&a| t.sides.iter().map(move |&s| (a, s)).collect::<Vec<_>>())
        })
        .map(|(a, s)| est.estimate_ps(a, s))
        .collect();
    let mean_est_ps = mix.iter().sum::<u64>() / mix.len().max(1) as u64;
    let mean_interarrival = ((mean_est_ps as f64 / total_boards.max(1) as f64) / load).max(1.0);
    // The last arrival comes at most `jobs × 2 × mean interarrival` in;
    // a deadline adds its slack to that, and the stream's service, all
    // of it run back to back, comes after. All of it must fit u64 ps.
    let max_est_ps = mix.iter().copied().max().unwrap_or(0) as f64;
    let max_slack_pct = tenants
        .iter()
        .filter_map(|t| t.deadline_slack_pct)
        .max()
        .unwrap_or(0) as f64;
    let worst_ps = jobs as f64 * 2.0 * mean_interarrival
        + max_est_ps * max_slack_pct / 100.0
        + jobs as f64 * max_est_ps;
    if worst_ps >= u64::MAX as f64 {
        return Err(format!(
            "`--load` is too small for {jobs} jobs: the stream would run past the u64 picosecond clock"
        ));
    }
    let names = tenants.iter().map(|t| t.name.clone()).collect();
    let spec = WorkloadSpec {
        tenants,
        jobs,
        mean_interarrival_ps: mean_interarrival as u64,
        seed,
    };
    Ok((names, generate_workload(&spec, &mut est)))
}

/// Sharded serving cluster: the serve-sim workload routed across N
/// nodes by consistent hashing, with work stealing, load shedding and
/// optional failure injection (see DESIGN.md §11). Deterministic for
/// any `--threads`.
fn cmd_cluster_sim(args: &[String]) -> ExitCode {
    use accelsoc::core::observe::{FlowObserver, LogObserver, NullObserver};
    use accelsoc::serve::{
        pool_image_seeds, ClusterConfig, ClusterSession, PolicyKind, ServeConfig,
    };

    let mut nodes: usize = 4;
    let mut boards_per_node: usize = 2;
    let mut policy = PolicyKind::Sjf;
    let mut jobs: usize = 64;
    let mut seed: u64 = 42;
    let mut threads: usize = 1;
    let mut queue_depth: usize = 8;
    let mut load: f64 = 0.8;
    let mut steal = true;
    let mut shed = true;
    let mut kills: Vec<(usize, u64)> = Vec::new();
    let mut image_pool: Option<u64> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut verbose = false;
    let mut i = 0;
    while i < args.len() {
        let parse_next = |what: &str| -> Result<&String, ExitCode> {
            args.get(i + 1).ok_or_else(|| {
                eprintln!("error: `{what}` requires a value");
                ExitCode::from(2)
            })
        };
        macro_rules! positive {
            ($flag:literal, $slot:ident, $ty:ty) => {
                match parse_next($flag).map(|v| v.parse::<$ty>()) {
                    Ok(Ok(n)) if n > 0 as $ty => {
                        $slot = n;
                        i += 2;
                    }
                    Ok(_) => {
                        eprintln!(concat!("error: `", $flag, "` needs a positive number"));
                        return ExitCode::from(2);
                    }
                    Err(c) => return c,
                }
            };
        }
        match args[i].as_str() {
            "--nodes" => positive!("--nodes", nodes, usize),
            "--boards-per-node" => positive!("--boards-per-node", boards_per_node, usize),
            "--jobs" => positive!("--jobs", jobs, usize),
            "--threads" => positive!("--threads", threads, usize),
            "--queue-depth" => positive!("--queue-depth", queue_depth, usize),
            "--load" => positive!("--load", load, f64),
            "--policy" => match parse_next("--policy").map(|v| v.parse::<PolicyKind>()) {
                Ok(Ok(p)) => {
                    policy = p;
                    i += 2;
                }
                Ok(Err(e)) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
                Err(c) => return c,
            },
            "--seed" => match parse_next("--seed").map(|v| v.parse::<u64>()) {
                Ok(Ok(n)) => {
                    seed = n;
                    i += 2;
                }
                Ok(Err(_)) => {
                    eprintln!("error: `--seed` needs an unsigned integer");
                    return ExitCode::from(2);
                }
                Err(c) => return c,
            },
            "--no-steal" => {
                steal = false;
                i += 1;
            }
            "--no-shed" => {
                shed = false;
                i += 1;
            }
            "--kill" => match parse_next("--kill") {
                Ok(v) => {
                    let parsed = v.split_once('@').and_then(|(n, ms)| {
                        Some((n.parse::<usize>().ok()?, ms.parse::<u64>().ok()?))
                    });
                    match parsed {
                        Some((node, ms)) => {
                            kills.push((node, ms.saturating_mul(1_000_000_000)));
                            i += 2;
                        }
                        None => {
                            eprintln!("error: `--kill` wants <node>@<ms>, e.g. 1@5");
                            return ExitCode::from(2);
                        }
                    }
                }
                Err(c) => return c,
            },
            "--image-pool" => match parse_next("--image-pool").map(|v| v.parse::<u64>()) {
                Ok(Ok(n)) if n > 0 => {
                    image_pool = Some(n);
                    i += 2;
                }
                Ok(_) => {
                    eprintln!("error: `--image-pool` needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(c) => return c,
            },
            "--json" => match parse_next("--json") {
                Ok(v) => {
                    json_path = Some(PathBuf::from(v));
                    i += 2;
                }
                Err(c) => return c,
            },
            "--verbose" => {
                verbose = true;
                i += 1;
            }
            other => {
                eprintln!("error: unknown option `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let (tenant_names, mut workload) =
        match canonical_workload(nodes * boards_per_node, load, jobs, seed) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
    if let Some(pool) = image_pool {
        pool_image_seeds(&mut workload, pool);
    }
    let node_cfg = ServeConfig::builder()
        .tenants(tenant_names)
        .boards(boards_per_node)
        .policy(policy)
        .queue_depth(queue_depth)
        .build();
    let mut builder = ClusterConfig::builder()
        .nodes(nodes, &node_cfg)
        .steal(steal)
        .shed(shed)
        .threads(threads)
        .seed(seed);
    for (node, at_ps) in kills {
        builder = builder.fail_node(node, at_ps);
    }
    let cfg = match builder.build() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let log;
    let observer: &dyn FlowObserver = if verbose {
        log = LogObserver::stderr();
        &log
    } else {
        &NullObserver
    };
    let report = match ClusterSession::new(cfg).run(&workload, observer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cluster error: {e}");
            return ExitCode::FAILURE;
        }
    };

    print_cluster_report(&report);
    if let Some(path) = &json_path {
        let json = match serde_json::to_string_pretty(&report) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error serializing report: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report   : {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Multi-board partitioning and whole-system co-simulation: the paper's
/// Otsu chain replicated `--scale` times, cut across up to `--boards`
/// Zynq-7020s, co-simulated over modeled inter-board stream links, and
/// cross-checked pixel-exactly against the scalar reference (see
/// DESIGN.md §13). Deterministic: same options ⇒ byte-identical JSON,
/// regardless of `--threads`.
fn cmd_partition_sim(args: &[String]) -> ExitCode {
    use accelsoc::core::observe::{FlowObserver, LogObserver, NullObserver};
    use accelsoc::partition::{run_partition_sim_observed, PartitionSimOptions};

    let mut boards: usize = 2;
    let mut scale: usize = 16;
    let mut side: u32 = 64;
    let mut seed: u64 = 1;
    let mut threads: usize = 1;
    let mut json_path: Option<PathBuf> = None;
    let mut verbose = false;
    let mut i = 0;
    while i < args.len() {
        let parse_next = |what: &str| -> Result<&String, ExitCode> {
            args.get(i + 1).ok_or_else(|| {
                eprintln!("error: `{what}` requires a value");
                ExitCode::from(2)
            })
        };
        macro_rules! positive {
            ($flag:literal, $slot:ident, $ty:ty) => {
                match parse_next($flag).map(|v| v.parse::<$ty>()) {
                    Ok(Ok(n)) if n > 0 => {
                        $slot = n;
                        i += 2;
                    }
                    Ok(_) => {
                        eprintln!(concat!("error: `", $flag, "` needs a positive integer"));
                        return ExitCode::from(2);
                    }
                    Err(c) => return c,
                }
            };
        }
        match args[i].as_str() {
            "--boards" => positive!("--boards", boards, usize),
            "--scale" => positive!("--scale", scale, usize),
            "--side" => positive!("--side", side, u32),
            "--threads" => positive!("--threads", threads, usize),
            "--seed" => match parse_next("--seed").map(|v| v.parse::<u64>()) {
                Ok(Ok(n)) => {
                    seed = n;
                    i += 2;
                }
                Ok(Err(_)) => {
                    eprintln!("error: `--seed` needs an unsigned integer");
                    return ExitCode::from(2);
                }
                Err(c) => return c,
            },
            "--json" => match parse_next("--json") {
                Ok(v) => {
                    json_path = Some(PathBuf::from(v));
                    i += 2;
                }
                Err(c) => return c,
            },
            "--verbose" => {
                verbose = true;
                i += 1;
            }
            other => {
                eprintln!("error: unknown option `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let opts = PartitionSimOptions::builder()
        .scale(scale)
        .max_boards(boards)
        .side(side)
        .seed(seed)
        .threads(threads)
        .build();
    let log;
    let observer: &dyn FlowObserver = if verbose {
        log = LogObserver::stderr();
        &log
    } else {
        &NullObserver
    };
    let report = match run_partition_sim_observed(&opts, observer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("partition-sim error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "design   : Otsu chain ×{} at {}×{} px   budget: {} boards   seed: {}",
        report.scale, report.side, report.side, report.max_boards, report.seed
    );
    println!(
        "plan     : {} boards, {} cut edges ({} B crossing), worst utilization {:.1}%",
        report.plan.board_count(),
        report.plan.cut_edges(),
        report.plan.cut_bytes,
        100.0
            * report
                .plan
                .boards
                .iter()
                .map(|b| b.utilization)
                .fold(0.0, f64::max)
    );
    for b in &report.plan.boards {
        println!(
            "  board {} : {:>3} nodes   {}   {:.1}% of {}",
            b.board,
            b.nodes.len(),
            b.area,
            100.0 * b.utilization,
            report.plan.part
        );
    }
    println!(
        "co-sim   : makespan {:.3} ms   link stall {:.3} ms",
        report.sim.makespan_ns / 1e6,
        report.sim.link_stall_ps as f64 / 1e9
    );
    for l in &report.sim.links {
        println!(
            "  link {:>2} : board {} -> {}   {:>6} words   occupancy {:.2}   backpressure {:.3} ms",
            l.id,
            l.src_board,
            l.dst_board,
            l.words,
            l.occupancy,
            l.backpressure_ps as f64 / 1e9
        );
    }
    println!(
        "function : {}/{} chains pixel-exact vs scalar reference{}",
        report.chains.iter().filter(|c| c.exact).count(),
        report.chains.len(),
        if report.pixel_exact { "" } else { "  MISMATCH" }
    );
    if let Some(path) = &json_path {
        let json = match serde_json::to_string_pretty(&report) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error serializing report: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report   : {}", path.display());
    }
    if report.pixel_exact {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_cluster_report(r: &accelsoc::serve::ClusterReport) {
    println!(
        "policy   : {}   nodes: {}   seed: {}",
        r.policy, r.nodes, r.seed
    );
    println!(
        "jobs     : {} submitted, {} admitted, {} rejected, {} shed",
        r.submitted, r.admitted, r.rejected, r.shed
    );
    println!(
        "outcomes : {} completed ({} late), {} timed out, {} failed",
        r.completed, r.completed_late, r.timed_out, r.failed
    );
    println!(
        "cluster  : {} forwarded, {} stolen, {} redispatched, {} node failures",
        r.forwarded, r.stolen, r.redispatched, r.node_failures
    );
    println!(
        "makespan : {:.3} ms   throughput: {:.1} jobs/s   fairness: {:.3}",
        r.makespan_ps as f64 / 1e9,
        r.throughput_jobs_per_s,
        r.fairness
    );
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10}",
        "tenant", "sub", "adm", "rej", "done", "miss", "p50(us)", "p99(us)"
    );
    for t in &r.tenants {
        println!(
            "{:<14} {:>6} {:>6} {:>6} {:>6} {:>6} {:>10.1} {:>10.1}",
            t.tenant,
            t.submitted,
            t.admitted,
            t.rejected,
            t.completed,
            t.deadline_missed,
            t.p50_latency_ps as f64 / 1e6,
            t.p99_latency_ps as f64 / 1e6
        );
    }
    for (i, n) in r.per_node.iter().enumerate() {
        let busy: Vec<String> = n
            .board_busy_ps
            .iter()
            .map(|&b| {
                if n.makespan_ps == 0 {
                    "idle".into()
                } else {
                    format!("{:.0}%", 100.0 * b as f64 / n.makespan_ps as f64)
                }
            })
            .collect();
        println!(
            "node {i:<4} : {} admitted, {} done, {} batches, boards busy [{}]",
            n.admitted,
            n.completed + n.completed_late,
            n.batches,
            busy.join(", ")
        );
    }
    if !r.accounting_ok() {
        println!("WARNING  : job accounting invariant violated");
    }
}

fn print_serve_report(r: &accelsoc::serve::ServeReport) {
    println!(
        "policy   : {}   boards: {}   seed: {}",
        r.policy, r.boards, r.seed
    );
    println!(
        "jobs     : {} submitted, {} admitted, {} rejected{}",
        r.submitted,
        r.admitted,
        r.rejections.total(),
        if r.rejections.total() > 0 {
            format!(
                " (queue_full {}, too_large {}, deadline {}, graph {}, tenant {})",
                r.rejections.queue_full,
                r.rejections.job_too_large,
                r.rejections.deadline_impossible,
                r.rejections.invalid_graph,
                r.rejections.unknown_tenant
            )
        } else {
            String::new()
        }
    );
    println!(
        "outcomes : {} completed ({} late), {} timed out; {} retries, {} batches",
        r.completed, r.completed_late, r.timed_out, r.retries, r.batches
    );
    println!(
        "makespan : {:.3} ms   throughput: {:.1} jobs/s   fairness: {:.3}",
        r.makespan_ps as f64 / 1e9,
        r.throughput_jobs_per_s,
        r.fairness
    );
    println!(
        "{:<14} {:>5} {:>5} {:>5} {:>5} {:>5} {:>10} {:>10}",
        "tenant", "sub", "adm", "rej", "done", "miss", "p50(us)", "p99(us)"
    );
    for t in &r.tenants {
        println!(
            "{:<14} {:>5} {:>5} {:>5} {:>5} {:>5} {:>10.1} {:>10.1}",
            t.tenant,
            t.submitted,
            t.admitted,
            t.rejected,
            t.completed,
            t.deadline_missed,
            t.p50_latency_ps as f64 / 1e6,
            t.p99_latency_ps as f64 / 1e6
        );
    }
    let busy: Vec<String> = r
        .board_busy_ps
        .iter()
        .map(|&b| {
            if r.makespan_ps == 0 {
                "idle".into()
            } else {
                format!("{:.0}%", 100.0 * b as f64 / r.makespan_ps as f64)
            }
        })
        .collect();
    println!("boards   : busy [{}]", busy.join(", "));
}

fn write_artifacts(
    dir: &Path,
    engine: &FlowEngine,
    art: &accelsoc::core::flow::FlowArtifacts,
) -> std::io::Result<()> {
    let _ = engine;
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("design.tcl"), &art.tcl)?;
    std::fs::write(dir.join("utilization.rpt"), art.synth.render())?;
    std::fs::write(dir.join("system.dts"), &art.dts)?;
    std::fs::write(dir.join("system.bit"), &art.bitstream.data)?;
    std::fs::write(dir.join("BOOT.BIN"), &art.boot.data)?;
    std::fs::write(dir.join("main.c"), &art.main_c)?;
    std::fs::write(dir.join("Makefile"), &art.makefile)?;
    let hls_dir = dir.join("hls");
    std::fs::create_dir_all(&hls_dir)?;
    for (name, r) in &art.hls {
        std::fs::write(hls_dir.join(format!("{name}.rpt")), r.report.render())?;
        std::fs::write(hls_dir.join(format!("{name}.v")), &r.verilog)?;
        std::fs::write(
            hls_dir.join(format!("{name}_directives.tcl")),
            &r.directives_tcl,
        )?;
    }
    if !art.capi.is_empty() {
        let api_dir = dir.join("api");
        std::fs::create_dir_all(&api_dir)?;
        for (name, header, impl_) in &art.capi {
            std::fs::write(api_dir.join(format!("{name}.h")), header)?;
            std::fs::write(api_dir.join(format!("{name}.c")), impl_)?;
        }
    }
    Ok(())
}
