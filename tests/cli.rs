//! Integration tests for the `accelsoc` CLI binary — the user-facing
//! analogue of "executing" the paper's Scala program.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_accelsoc"))
}

fn write_tg(dir: &std::path::Path, name: &str, body: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, body).unwrap();
    p
}

const PIPE: &str = r#"
object pipe extends App {
  tg nodes;
    tg node "GAUSS" is "in" is "out" end;
    tg node "EDGE" is "in" is "out" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("GAUSS","in") end;
    tg link ("GAUSS","out") to ("EDGE","in") end;
    tg link ("EDGE","out") to 'soc end;
  tg end_edges;
}
"#;

#[test]
fn check_accepts_valid_and_rejects_invalid() {
    let dir = std::env::temp_dir().join("accelsoc_cli_check");
    std::fs::create_dir_all(&dir).unwrap();
    let good = write_tg(&dir, "good.tg", PIPE);
    let out = bin().arg("check").arg(&good).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("project `pipe`"));
    assert!(stdout.contains("2 nodes"));

    let bad = write_tg(&dir, "bad.tg", "tg nodes; nonsense");
    let out = bin().arg("check").arg(&bad).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn fmt_emits_reparseable_canonical_form() {
    let dir = std::env::temp_dir().join("accelsoc_cli_fmt");
    std::fs::create_dir_all(&dir).unwrap();
    let src = write_tg(&dir, "p.tg", PIPE);
    let out = bin().arg("fmt").arg(&src).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = accelsoc::core::dsl::parse(&text).unwrap();
    assert_eq!(parsed.project, "pipe");
    assert_eq!(parsed.nodes.len(), 2);
}

#[test]
fn build_writes_complete_artifact_set() {
    let dir = std::env::temp_dir().join("accelsoc_cli_build");
    std::fs::create_dir_all(&dir).unwrap();
    let src = write_tg(&dir, "p.tg", PIPE);
    let out_dir = dir.join("out");
    let out = bin()
        .args(["build"])
        .arg(&src)
        .args(["--out"])
        .arg(&out_dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in [
        "design.tcl",
        "utilization.rpt",
        "system.bit",
        "BOOT.BIN",
        "system.dts",
        "main.c",
        "Makefile",
    ] {
        assert!(out_dir.join(f).exists(), "missing {f}");
    }
    for core in ["GAUSS", "EDGE"] {
        for ext in ["rpt", "v"] {
            assert!(out_dir.join("hls").join(format!("{core}.{ext}")).exists());
        }
    }
    // The bitstream on disk verifies.
    let bits = std::fs::read(out_dir.join("system.bit")).unwrap();
    accelsoc_integration::bitstream::verify(&bits.into()).unwrap();
}

#[test]
fn build_rejects_unknown_node() {
    let dir = std::env::temp_dir().join("accelsoc_cli_unknown");
    std::fs::create_dir_all(&dir).unwrap();
    let src = write_tg(
        &dir,
        "u.tg",
        r#"
        tg nodes; tg node "NOKERNEL" is "in" is "out" end; tg end_nodes;
        tg edges;
          tg link 'soc to ("NOKERNEL","in") end;
          tg link ("NOKERNEL","out") to 'soc end;
        tg end_edges;
        "#,
    );
    let out = bin().arg("build").arg(&src).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no kernel registered"));
}

#[test]
fn kernels_lists_library() {
    let out = bin().arg("kernels").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for k in [
        "grayScale",
        "computeHistogram",
        "halfProbability",
        "segment",
        "ADD",
        "GAUSS",
    ] {
        assert!(stdout.contains(k), "missing {k}");
    }
}

#[test]
fn build_cache_dir_second_invocation_is_warm() {
    let dir = std::env::temp_dir().join("accelsoc_cli_cache_warm");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let src = write_tg(&dir, "p.tg", PIPE);
    let cache = dir.join("cache");

    let run = |out: &str, trace: &str| {
        let o = bin()
            .arg("build")
            .arg(&src)
            .args(["--out"])
            .arg(dir.join(out))
            .args(["--cache-dir"])
            .arg(&cache)
            .args(["--trace-json"])
            .arg(dir.join(trace))
            .output()
            .unwrap();
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        std::fs::read_to_string(dir.join(trace)).unwrap()
    };

    // Cold process: every kernel is a miss, and both get persisted.
    let t1 = run("out1", "t1.jsonl");
    assert_eq!(t1.matches("\"HlsCacheStored\"").count(), 2, "{t1}");
    assert_eq!(t1.matches("\"HlsCachePersistedHit\"").count(), 0);
    assert_eq!(t1.matches("\"hit\":false").count(), 2);

    // Warm *separate process*: both kernels come off disk — nonzero
    // persisted hits in the trace, nothing synthesized, same artifacts.
    let t2 = run("out2", "t2.jsonl");
    assert_eq!(t2.matches("\"HlsCachePersistedHit\"").count(), 2, "{t2}");
    assert_eq!(t2.matches("\"hit\":true").count(), 2);
    assert_eq!(t2.matches("\"HlsKernelSynthesized\"").count(), 0);
    for core in ["GAUSS", "EDGE"] {
        let a = std::fs::read(dir.join("out1/hls").join(format!("{core}.v"))).unwrap();
        let b = std::fs::read(dir.join("out2/hls").join(format!("{core}.v"))).unwrap();
        assert_eq!(a, b, "warm {core} RTL differs from cold");
    }
}

#[test]
fn build_no_cache_disables_lookup_and_persistence() {
    let dir = std::env::temp_dir().join("accelsoc_cli_no_cache");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let src = write_tg(&dir, "p.tg", PIPE);
    let cache = dir.join("cache");
    for (out, trace) in [("out1", "t1.jsonl"), ("out2", "t2.jsonl")] {
        let o = bin()
            .arg("build")
            .arg(&src)
            .args(["--out"])
            .arg(dir.join(out))
            .args(["--cache-dir"])
            .arg(&cache)
            .arg("--no-cache")
            .args(["--trace-json"])
            .arg(dir.join(trace))
            .output()
            .unwrap();
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        let t = std::fs::read_to_string(dir.join(trace)).unwrap();
        // Every query misses (even on the second run over the same
        // directory) and nothing is ever stored.
        assert_eq!(t.matches("\"hit\":false").count(), 2, "{t}");
        assert_eq!(t.matches("\"hit\":true").count(), 0);
        assert_eq!(t.matches("\"HlsCacheStored\"").count(), 0);
        assert_eq!(t.matches("\"HlsKernelSynthesized\"").count(), 2);
    }
    // --no-cache kept the persistent tier empty.
    let entries = std::fs::read_dir(&cache).map(|d| d.count()).unwrap_or(0);
    assert_eq!(entries, 0, "cache dir must stay empty under --no-cache");
}

#[test]
fn build_cache_dir_requires_a_value() {
    let dir = std::env::temp_dir().join("accelsoc_cli_cache_argerr");
    std::fs::create_dir_all(&dir).unwrap();
    let src = write_tg(&dir, "p.tg", PIPE);
    let out = bin()
        .arg("build")
        .arg(&src)
        .arg("--cache-dir")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires a value"));
}

#[test]
fn sim_runs_pipeline_and_emits_vcd() {
    let dir = std::env::temp_dir().join("accelsoc_cli_sim");
    std::fs::create_dir_all(&dir).unwrap();
    let src = write_tg(&dir, "p.tg", PIPE);
    let out = bin()
        .current_dir(&dir)
        .args(["sim"])
        .arg(&src)
        .args(["--n", "32"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("input  (32 tokens)"));
    assert!(stdout.contains("per stage:"));
    assert!(dir.join("sim.vcd").exists());
    let vcd = std::fs::read_to_string(dir.join("sim.vcd")).unwrap();
    assert!(vcd.contains("$enddefinitions"));
}

/// Inputs that used to panic (exit 101) or were silently replaced by a
/// default: each must now fail with a usage or model error instead.
#[test]
fn bad_sim_and_partition_inputs_fail_without_panicking() {
    let dir = std::env::temp_dir().join("accelsoc_cli_bad_inputs");
    std::fs::create_dir_all(&dir).unwrap();
    let src = write_tg(&dir, "p.tg", PIPE);
    let src = src.to_str().unwrap();
    for (args, stderr) in [
        (vec!["sim", src, "--n", "100000000"], "does not fit"),
        (vec!["sim", src, "--n", "abc"], "needs a positive integer"),
        (
            vec!["sim", src, "--fifo-depth", "abc"],
            "needs a positive integer",
        ),
        (vec!["sim", src, "--n"], "requires a value"),
        (vec!["partition-sim", "--side", "100000"], "tile needs"),
    ] {
        let out = bin().current_dir(&dir).args(&args).output().unwrap();
        let code = out.status.code();
        assert!(
            code.is_some_and(|c| c != 0 && c != 101),
            "{args:?} exited with {code:?}"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(stderr), "{args:?}: {err}");
    }
}

/// `halfProbability` counts a tile's pixels in 21-bit locals, so a tile
/// past 2^21 − 1 px (side 1449) is refused up front instead of running
/// to a wrapped count and a `MISMATCH` line.
#[test]
fn partition_tile_past_the_pixel_counters_is_refused() {
    let out = bin()
        .args([
            "partition-sim",
            "--boards",
            "1",
            "--scale",
            "1",
            "--side",
            "1449",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("pixel counters") && !err.contains("panicked"),
        "{err}"
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("MISMATCH"));
}

/// A load so small that the arrival clock would pass `u64::MAX`
/// picoseconds overflowed it (a panic in this debug build, exit 101; a
/// wrapped clock and a nonsense report in release): both serving
/// subcommands refuse it as a usage error naming `--load`.
#[test]
fn a_load_too_small_for_the_clock_is_refused() {
    for cmd in ["serve-sim", "cluster-sim"] {
        let out = bin()
            .args([cmd, "--jobs", "10", "--load", "1e-300"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("`--load`") && !err.contains("panicked"),
            "{cmd}: {err}"
        );
        assert!(out.stdout.is_empty(), "{cmd} printed a report");
    }
}

/// A reader of stdout that went away (`accelsoc cluster-sim | head -3`)
/// makes every report write fail with `BrokenPipe`: the process must end
/// quietly instead of panicking (exit 101). The read end is closed before
/// the child starts, so its very first write already fails.
#[test]
fn closed_stdout_ends_the_process_without_panicking() {
    for args in [
        &["kernels"][..],
        &["serve-sim", "--jobs", "4"],
        &["cluster-sim", "--jobs", "8"],
        &["partition-sim", "--scale", "2", "--side", "16"],
    ] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = bin().args(args).stdout(writer).output().unwrap();
        let code = out.status.code();
        assert_ne!(code, Some(101), "{args:?} exited with {code:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}
