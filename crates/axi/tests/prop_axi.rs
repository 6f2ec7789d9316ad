//! Property-based tests on the AXI models: FIFO discipline, DMA data
//! integrity, address decoding.

use accelsoc_axi::dma::{DmaDescriptor, DmaEngine};
use accelsoc_axi::lite::{AddressMap, AxiLiteBus, RegisterFile};
use accelsoc_axi::protocol::{AxiResp, MemError, MemoryPort, VecMemory, PAGE_BYTES};
use accelsoc_axi::stream::{AxiStreamChannel, Beat};
use proptest::prelude::*;
use std::collections::BTreeSet;

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
    /// Streams preserve order and never lose or duplicate beats under an
    /// arbitrary interleaving of pushes and pops.
    #[test]
    fn stream_is_fifo(ops in proptest::collection::vec(any::<Option<u32>>(), 1..200),
                      cap in 1usize..32) {
        let mut ch = AxiStreamChannel::new("s", 32, cap);
        let mut pushed: Vec<u64> = Vec::new();
        let mut popped: Vec<u64> = Vec::new();
        let mut seq = 0u64;
        for op in ops {
            match op {
                Some(_) => {
                    if ch.push(Beat { data: seq, last: false }).is_ok() {
                        pushed.push(seq);
                        seq += 1;
                    }
                }
                None => {
                    if let Some(b) = ch.pop() {
                        popped.push(b.data);
                    }
                }
            }
        }
        while let Some(b) = ch.pop() {
            popped.push(b.data);
        }
        prop_assert_eq!(popped, pushed, "FIFO order violated");
    }

    /// MM2S -> S2MM round-trips arbitrary buffers exactly, for any beat
    /// width dividing the length.
    #[test]
    fn dma_roundtrip_preserves_bytes(data in proptest::collection::vec(any::<u8>(), 1..256),
                                     width_sel in 0usize..3) {
        let widths = [8u32, 16, 32];
        let width = widths[width_sel];
        let bb = (width / 8) as usize;
        // Pad to a whole number of beats.
        let mut data = data;
        while data.len() % bb != 0 {
            data.push(0);
        }
        let len = data.len() as u64;
        let mut mem = VecMemory::new(2 * data.len() + 64);
        mem.write(0, &data).unwrap();
        let mut dma = DmaEngine::new("d");
        let mut ch = AxiStreamChannel::new("s", width, data.len() + 1);
        dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len }, &mut ch).unwrap();
        // TLAST on exactly the final beat.
        let beats: Vec<Beat> = std::iter::from_fn(|| ch.pop()).collect();
        prop_assert!(beats.last().unwrap().last);
        prop_assert!(beats[..beats.len() - 1].iter().all(|b| !b.last));
        // Round-trip.
        let mut ch2 = AxiStreamChannel::new("s2", width, beats.len());
        for b in &beats {
            ch2.push(*b).unwrap();
        }
        let dst = data.len() as u64;
        dma.s2mm(&mut mem, DmaDescriptor { addr: dst, len }, &mut ch2).unwrap();
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
        let mut mem = VecMemory::new(4096);
        let mut dma = DmaEngine::new("d");
        let mut ch1 = AxiStreamChannel::new("s", 8, 4096);
        let s1 = dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len: small }, &mut ch1).unwrap();
        let mut ch2 = AxiStreamChannel::new("s", 8, 4096);
        let s2 = dma.mm2s(&mut mem, DmaDescriptor { addr: 0, len: large }, &mut ch2).unwrap();
        prop_assert!(s2.cycles > s1.cycles);
    }

    /// The address map never decodes one address into two windows, and
    /// `next_free` allocations never overlap existing windows.
    #[test]
    fn address_map_disjoint(spans in proptest::collection::vec(8u64..0x2000, 1..12)) {
        let mut map = AddressMap::new();
        let mut bases = Vec::new();
        let mut from = 0x4000_0000u64;
        for (i, span) in spans.iter().enumerate() {
            let base = map.next_free(from, *span);
            map.add(&format!("w{i}"), base, *span).unwrap();
            bases.push((base, span.next_power_of_two()));
            from = base; // allocate densely from the last base
        }
        // Pairwise disjoint.
        for (i, &(b1, s1)) in bases.iter().enumerate() {
            for &(b2, s2) in bases.iter().skip(i + 1) {
                prop_assert!(b1 + s1 <= b2 || b2 + s2 <= b1);
            }
        }
        // Decoding any covered address yields exactly its window.
        for (i, &(b, s)) in bases.iter().enumerate() {
            let (_, name, off) = map.decode(b + s / 2).unwrap();
            prop_assert_eq!(name, format!("w{i}"));
            prop_assert_eq!(off, s / 2);
        }
    }

    /// Register files: bus writes round-trip through bus reads on
    /// writable registers; read-only registers reject bus writes.
    #[test]
    fn regfile_semantics(vals in proptest::collection::vec(any::<u32>(), 1..16)) {
        let mut bus = AxiLiteBus::new();
        let mut rf = RegisterFile::new();
        for i in 0..vals.len() {
            rf = rf.with_register(i as u32 * 4, i % 2 == 0);
        }
        bus.attach("rf", 0x0, 0x1000, Box::new(rf)).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            let addr = i as u64 * 4;
            let (resp, _) = bus.write(addr, v);
            if i % 2 == 0 {
                prop_assert_eq!(resp, AxiResp::Okay);
                prop_assert_eq!(bus.read(addr).0, v);
            } else {
                prop_assert_eq!(resp, AxiResp::SlvErr);
                prop_assert_eq!(bus.read(addr).0, 0, "read-only register unchanged");
            }
        }
    }
}
