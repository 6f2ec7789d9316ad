//! Golden tests pinning the serialized `BatchReport`, `ServeReport` and
//! `PartitionSimReport` byte-for-byte.
//!
//! All three reports are virtual-time-only and deterministic by construction,
//! so their JSON must not drift when the execution engine underneath is
//! swapped (e.g. interpreter -> compiled kernel VM): any byte of
//! difference means simulated timing or results changed, which is a
//! semantic regression, not a refactor. Regenerate after an *intentional*
//! model change with `UPDATE_GOLDEN=1 cargo test --test golden_reports`.

use accelsoc_apps::archs::{arch_dsl_source, otsu_flow_engine, Arch};
use accelsoc_apps::batch::{image_stream, run_batch};
use accelsoc_apps::otsu::AppConfig;
use accelsoc_core::observe::NullObserver;
use accelsoc_partition::{run_partition_sim, PartitionSimOptions};
use accelsoc_serve::{
    generate_workload, DseEstimator, PolicyKind, ServeConfig, ServeSession, TenantProfile,
    WorkloadSpec,
};
use std::path::Path;

fn check_or_update(golden_rel: &str, actual: &str) {
    let golden_path =
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).join(golden_rel);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden report missing: run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        actual,
        golden,
        "{} diverged from its pre-recorded golden; the simulated timing or \
         results changed. Rerun with UPDATE_GOLDEN=1 only if the model \
         change is intentional",
        golden_path.display()
    );
}

#[test]
fn batch_report_matches_golden() {
    let mut engine = otsu_flow_engine();
    let stream = image_stream(3, 24);
    let cfg = AppConfig::default();
    let mut out = String::new();
    for arch in [Arch::Arch2, Arch::Arch4] {
        let art = engine.run_source(&arch_dsl_source(arch)).expect("flow");
        let rep = run_batch(arch, &engine, &art, &stream, 2, &cfg).expect("batch");
        out.push_str(&serde_json::to_string_pretty(&rep).unwrap());
        out.push('\n');
    }
    check_or_update("batch_report.json", &out);
}

#[test]
fn serve_report_matches_golden() {
    let profiles = vec![
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
            sides: vec![32],
            archs: vec![Arch::Arch1],
            deadline_slack_pct: None,
            fault_rate: 0.1,
        },
    ];
    let spec = WorkloadSpec {
        tenants: profiles.clone(),
        jobs: 12,
        mean_interarrival_ps: 50_000_000,
        seed: 7,
    };
    let mut est = DseEstimator::new();
    let jobs = generate_workload(&spec, &mut est);
    let cfg = ServeConfig::builder()
        .tenants(profiles.iter().map(|t| t.name.clone()))
        .boards(2)
        .policy(PolicyKind::Sjf)
        .threads(2)
        .seed(spec.seed)
        .build();
    let rep = ServeSession::new(cfg)
        .run(&jobs, &NullObserver)
        .expect("serve");
    let out = serde_json::to_string_pretty(&rep).unwrap() + "\n";
    check_or_update("serve_report.json", &out);
}

#[test]
fn partition_report_matches_golden() {
    // The verify.sh smoke config, plus an odd scale and side that leave a
    // ragged last chunk of chains per worker and a non-power-of-two tile.
    // The makespan comes from the DSE chain model and the chain checksums
    // from the functional layer, so this pins both.
    let mut out = String::new();
    for (scale, side) in [(16, 32), (5, 17)] {
        let opts = PartitionSimOptions::builder()
            .scale(scale)
            .max_boards(2)
            .side(side)
            .seed(1)
            .threads(2)
            .build();
        let rep = run_partition_sim(&opts).expect("partition-sim");
        assert!(rep.pixel_exact);
        out.push_str(&serde_json::to_string_pretty(&rep).unwrap());
        out.push('\n');
    }
    check_or_update("partition_report.json", &out);
}
