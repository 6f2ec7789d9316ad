//! Property-based tests on the AXI models: DMA data integrity and cycle
//! model, and the paged memory behind board DRAM.

use accelsoc_axi::dma::{mm2s, mm2s_into, s2mm, s2mm_via, DmaDescriptor, DmaEngine};
use accelsoc_axi::protocol::{MemError, MemoryPort, VecMemory, PAGE_BYTES};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// MM2S by its per-byte definition: each beat's bytes folded
/// most-significant first into a `u64`, so bytes past the eighth shift
/// out.
fn mm2s_per_byte(data: &[u8], beat_bytes: usize) -> Vec<i64> {
    data.chunks_exact(beat_bytes)
        .map(|beat| beat.iter().rev().fold(0u64, |acc, &b| acc << 8 | b as u64) as i64)
        .collect()
}

/// S2MM's packing by its per-byte definition: byte `j` of a beat is bits
/// `8j..8j+8` of its token, 0 from the ninth byte on.
fn s2mm_per_byte(tokens: &[i64], beat_bytes: u32) -> Vec<u8> {
    tokens
        .iter()
        .flat_map(|&t| {
            (0..beat_bytes).map(move |j| (t as u64).checked_shr(8 * j).unwrap_or(0) as u8)
        })
        .collect()
}

/// An access address drawn by `mode` from `raw`: 0 straddles a page
/// boundary, 1 sits near the top of the 64-bit space (so `addr + len`
/// overflows), anything else is `raw` as is (in or past the region).
fn access_addr(mode: u8, raw: u64) -> u64 {
    let page = PAGE_BYTES as u64;
    match mode {
        0 => (raw / page + 1) * page - raw % 8,
        1 => u64::MAX - raw % 8,
        _ => raw,
    }
}

proptest! {
    /// MM2S -> S2MM round-trips arbitrary buffers exactly, for any beat
    /// width dividing the length, and each token is its beat's bytes read
    /// little-endian — 8-byte beats with the top bit set included, which
    /// are negative tokens.
    #[test]
    fn dma_roundtrip_preserves_bytes(data in proptest::collection::vec(any::<u8>(), 1..256),
                                     width_sel in 0usize..5) {
        let widths = [8u32, 16, 24, 32, 64];
        let bb = widths[width_sel] / 8;
        // Pad to a whole number of beats.
        let mut data = data;
        while data.len() % bb as usize != 0 {
            data.push(0);
        }
        let len = data.len() as u64;
        let mut mem = VecMemory::new(2 * data.len() + 64);
        mem.write(0, &data).unwrap();
        let tokens = mm2s(&mut mem, DmaDescriptor { addr: 0, len }, bb).unwrap();
        prop_assert_eq!(tokens.len() as u64, len / bb as u64);
        for (t, beat) in tokens.iter().zip(data.chunks(bb as usize)) {
            let mut le = [0u8; 8];
            le[..beat.len()].copy_from_slice(beat);
            prop_assert_eq!(*t, i64::from_le_bytes(le));
        }
        let dst = data.len() as u64;
        let beats = s2mm(&mut mem, DmaDescriptor { addr: dst, len }, bb, &tokens).unwrap();
        prop_assert_eq!(beats, tokens.len() as u64);
        let mut out = vec![0u8; data.len()];
        mem.read(dst, &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    /// The paged store behaves exactly like a zero-filled flat buffer:
    /// random writes and reads, ranges that cross pages, never-written
    /// ranges (read as 0), and out-of-range accesses — including ones
    /// whose end overflows `u64` — which are typed errors that change
    /// nothing. Only pages a write touched are allocated.
    #[test]
    fn paged_memory_matches_flat_reference(
        size in 1usize..5 * PAGE_BYTES,
        ops in proptest::collection::vec(
            (any::<bool>(), 0u8..4, 0u64..6 * PAGE_BYTES as u64, 0usize..2 * PAGE_BYTES + 64, any::<u8>()),
            1..40,
        ),
    ) {
        let mut mem = VecMemory::new(size);
        let mut flat = vec![0u8; size];
        let mut written_pages = BTreeSet::new();
        for (is_write, mode, raw, len, seed) in ops {
            let addr = access_addr(mode, raw);
            let range = addr
                .checked_add(len as u64)
                .filter(|&end| end <= size as u64)
                .map(|end| addr as usize..end as usize);
            let oob = MemError::OutOfRange { addr, len, size: size as u64 };
            if is_write {
                let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
                let got = mem.write(addr, &data);
                match range {
                    Some(r) => {
                        prop_assert_eq!(got, Ok(()));
                        let page = PAGE_BYTES;
                        written_pages.extend(r.start / page..r.end.div_ceil(page));
                        flat[r].copy_from_slice(&data);
                    }
                    None => prop_assert_eq!(got, Err(oob)),
                }
            } else {
                let mut buf = vec![0xa5u8; len];
                let got = mem.read(addr, &mut buf);
                match range {
                    Some(r) => {
                        prop_assert_eq!(got, Ok(()));
                        prop_assert_eq!(&buf[..], &flat[r]);
                    }
                    None => prop_assert_eq!(got, Err(oob)),
                }
            }
        }
        let mut all = vec![0xa5u8; size];
        mem.peek(0, &mut all).unwrap();
        prop_assert_eq!(all, flat);
        prop_assert_eq!(mem.resident_pages(), written_pages.len());
    }

    /// Cycle model is monotone in transfer size.
    #[test]
    fn dma_cycles_monotone(a in 1u64..64, b in 1u64..64) {
        let (small, large) = (a.min(b), a.max(b));
        prop_assume!(small < large);
        let dma = DmaEngine::new("d");
        prop_assert!(dma.cycles_for(large) > dma.cycles_for(small));
    }

    /// The word-copy channels equal their per-byte definitions at every
    /// beat width from 1 to 9 bytes, on tokens of any sign: MM2S
    /// decodes the same tokens (appending to reused buffers that
    /// already hold data), and S2MM writes the same bytes into a
    /// partially filled buffer, leaving the rest of the buffer as it
    /// was.
    #[test]
    fn word_copy_dma_matches_per_byte_definition(
        beat_bytes in 1u32..=9,
        data in proptest::collection::vec(any::<u8>(), 1..96),
        tokens in proptest::collection::vec(any::<i64>(), 1..24),
        spare_beats in 0u64..5,
        stale in proptest::collection::vec(any::<i64>(), 0..4),
    ) {
        let w = beat_bytes as usize;
        let mut data = data;
        data.resize(data.len().div_ceil(w) * w, 0x5a);
        let len = data.len() as u64;
        let mut mem = VecMemory::new(4096);
        mem.write(64, &data).unwrap();
        let desc = DmaDescriptor { addr: 64, len };
        let want = mm2s_per_byte(&data, w);
        prop_assert_eq!(mm2s(&mut mem, desc, beat_bytes).unwrap(), want.clone());
        let (mut bytes, mut got) = (vec![7u8; 3], stale.clone());
        mm2s_into(&mut mem, desc, beat_bytes, &mut bytes, &mut got).unwrap();
        prop_assert_eq!(&got[..stale.len()], &stale[..]);
        prop_assert_eq!(&got[stale.len()..], &want[..]);

        // A buffer `spare_beats` beats longer than the stream, over
        // bytes that are not zero: TLAST ends the write early.
        let out_len = (tokens.len() as u64 + spare_beats) * beat_bytes as u64;
        let out = DmaDescriptor { addr: 1024, len: out_len };
        let background = vec![0xeeu8; out_len as usize];
        let mut expect = s2mm_per_byte(&tokens, beat_bytes);
        expect.extend_from_slice(&background[expect.len()..]);
        for via in [false, true] {
            let mut mem = VecMemory::new(4096);
            mem.write(1024, &background).unwrap();
            let beats = if via {
                s2mm_via(&mut mem, out, beat_bytes, &tokens, &mut vec![1, 2, 3]).unwrap()
            } else {
                s2mm(&mut mem, out, beat_bytes, &tokens).unwrap()
            };
            prop_assert_eq!(beats, tokens.len() as u64);
            let mut written = vec![0u8; out_len as usize];
            mem.read(1024, &mut written).unwrap();
            prop_assert_eq!(&written, &expect);
        }
    }
}
