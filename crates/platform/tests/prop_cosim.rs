//! Property tests of the phase-timing memo: over generated copy,
//! reduction and broadcast phases, a memoized result is exactly what
//! `cosim::run` computes — on the first request and on every repeat — and
//! an input that differs in any one field is simulated afresh.

use accelsoc_platform::cosim::{
    self, CosimPhase, PhaseMemo, SinkSpec, SourceSpec, StagePort, StageSpec,
};
use proptest::prelude::*;

/// Generous cap: generated phases are consistent, so they finish far
/// below it.
const CAP: u64 = 200_000;

/// The knobs every generated phase shares.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    beats: u64,
    depth: u64,
    ii: u64,
    burst_beats: u64,
    burst_overhead: u64,
}

fn source(k: Knobs, beats: u64, bytes_per_beat: u64, out_fifo: usize) -> SourceSpec {
    SourceSpec {
        name: "dma0:mm2s".into(),
        beats,
        bytes_per_beat,
        setup_cycles: 30,
        burst_beats: k.burst_beats,
        burst_overhead: k.burst_overhead,
        out_fifo,
    }
}

fn sink(k: Knobs, beats: u64, bytes_per_beat: u64, in_fifo: usize) -> SinkSpec {
    SinkSpec {
        name: "dma0:s2mm".into(),
        beats,
        bytes_per_beat,
        setup_cycles: 30,
        burst_beats: k.burst_beats,
        burst_overhead: k.burst_overhead,
        in_fifo,
    }
}

fn stage(name: &str, ii: u64, inputs: &[(usize, u64)], outputs: &[(usize, u64)]) -> StageSpec {
    let ports = |ps: &[(usize, u64)]| {
        ps.iter()
            .map(|&(fifo, tokens)| StagePort { fifo, tokens })
            .collect()
    };
    StageSpec {
        name: name.into(),
        startup_cycles: 40,
        ii,
        inputs: ports(inputs),
        outputs: ports(outputs),
    }
}

/// source -> stage -> sink, one token per beat.
fn copy_phase(k: Knobs) -> CosimPhase {
    let mut p = CosimPhase::default();
    let (a, b) = (p.add_fifo(k.depth), p.add_fifo(k.depth));
    p.sources.push(source(k, k.beats, 1, a));
    p.stages
        .push(stage("copy", k.ii, &[(a, k.beats)], &[(b, k.beats)]));
    p.sinks.push(sink(k, k.beats, 1, b));
    p
}

/// A histogram-style reduction: many tokens in, at most 16 out.
fn reduction_phase(k: Knobs) -> CosimPhase {
    let bins = k.beats.min(16);
    let mut p = CosimPhase::default();
    let (a, b) = (p.add_fifo(k.depth), p.add_fifo(k.depth));
    p.sources.push(source(k, k.beats, 1, a));
    p.stages
        .push(stage("hist", k.ii, &[(a, k.beats)], &[(b, bins)]));
    p.sinks.push(sink(k, bins, 4, b));
    p
}

/// The Arch4 shape: one stage broadcasts to a full-rate reduction chain
/// and to a stage that also waits on the chain's single threshold token.
fn broadcast_phase(k: Knobs) -> CosimPhase {
    let n = k.beats;
    let mut p = CosimPhase::default();
    let f: Vec<usize> = (0..6).map(|_| p.add_fifo(k.depth)).collect();
    p.sources.push(source(k, n, 4, f[0]));
    p.stages
        .push(stage("gray", 1, &[(f[0], n)], &[(f[1], n), (f[2], n)]));
    p.stages
        .push(stage("hist", k.ii, &[(f[1], n)], &[(f[3], 256)]));
    p.stages
        .push(stage("otsu", 1, &[(f[3], 256)], &[(f[4], 1)]));
    p.stages
        .push(stage("segment", 1, &[(f[2], n), (f[4], 1)], &[(f[5], n)]));
    p.sinks.push(sink(k, n, 1, f[5]));
    p
}

fn phase_of(kind: usize, k: Knobs) -> CosimPhase {
    match kind {
        0 => copy_phase(k),
        1 => reduction_phase(k),
        _ => broadcast_phase(k),
    }
}

/// `key` with exactly one field changed, chosen by `field`.
fn perturb(
    (mut phase, mut hp, mut cap): (CosimPhase, u64, u64),
    field: usize,
) -> (CosimPhase, u64, u64) {
    match field {
        0 => phase.fifo_capacities[0] += 1,
        1 => hp += 1,
        2 => cap += 1,
        3 => phase.stages[0].ii += 1,
        4 => phase.stages[0].startup_cycles += 1,
        5 => phase.sources[0].setup_cycles += 1,
        6 => phase.sources[0].burst_overhead += 1,
        7 => phase.sinks[0].burst_beats += 1,
        8 => phase.sinks[0].bytes_per_beat += 1,
        _ => phase.stages[0].name.push('\''),
    }
    (phase, hp, cap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// First and repeated memo results equal `cosim::run`'s; the repeat
    /// is flagged as reused and simulates nothing new.
    #[test]
    fn memo_matches_run_first_and_repeated(
        kind in 0usize..3,
        beats in 1u64..600,
        depth in 1u64..33,
        ii in 1u64..5,
        // At least the widest beat (4 bytes): a narrower HP port can
        // never move one, and the phase would run into the cap.
        hp in 4u64..17,
        burst_beats in 0u64..33,
        burst_overhead in 0u64..17,
    ) {
        let k = Knobs { beats, depth, ii, burst_beats, burst_overhead };
        let phase = phase_of(kind, k);
        let want = cosim::run(&phase, hp, CAP);
        prop_assert!(!want.capped, "generated phase must finish: {:?}", want);
        let memo = PhaseMemo::new();
        let first = memo.run(phase.clone(), hp, CAP);
        prop_assert_eq!(&first, &(want.clone(), false));
        for _ in 0..2 {
            prop_assert_eq!(memo.run(phase.clone(), hp, CAP), (want.clone(), true));
        }
        prop_assert_eq!(memo.len(), 1);
    }

    /// An input differing from a memoized one in a single field — any
    /// FIFO capacity, spec field, HP budget or cycle cap — gets its own
    /// entry, computed fresh, and leaves the original entry intact.
    #[test]
    fn memo_keys_on_every_field(
        kind in 0usize..3,
        beats in 1u64..400,
        depth in 1u64..17,
        ii in 1u64..4,
        // Wider than any beat, even one that `perturb` widened.
        hp in 5u64..17,
        burst_beats in 1u64..17,
        burst_overhead in 0u64..9,
        field in 0usize..10,
    ) {
        let k = Knobs { beats, depth, ii, burst_beats, burst_overhead };
        let base = (phase_of(kind, k), hp, CAP);
        let memo = PhaseMemo::new();
        let (base_r, _) = memo.run(base.0.clone(), base.1, base.2);
        let (phase, hp2, cap2) = perturb(base.clone(), field);
        prop_assert!((&phase, hp2, cap2) != (&base.0, base.1, base.2));
        let want = cosim::run(&phase, hp2, cap2);
        prop_assert_eq!(memo.run(phase.clone(), hp2, cap2), (want.clone(), false));
        prop_assert_eq!(memo.run(phase, hp2, cap2), (want, true));
        prop_assert_eq!(memo.run(base.0, base.1, base.2), (base_r, true));
        prop_assert_eq!(memo.len(), 2);
    }
}
