//! DMA engine model (the `axi_dma` core the paper's flow instantiates per
//! `'soc`-terminated stream link).
//!
//! Two channels, as in the Xilinx AXI DMA, each moving one whole buffer
//! per transfer:
//!
//! * **MM2S** (memory-mapped to stream), [`mm2s`]: reads a buffer from
//!   DRAM and unpacks it into stream tokens, one per beat;
//! * **S2MM** (stream to memory-mapped), [`s2mm`]: packs a stream's
//!   tokens into beats and writes them to a DRAM buffer. TLAST rides on
//!   the last token, so a stream shorter than the buffer fills it
//!   partially, and one longer than the buffer is an overrun.
//!
//! A beat is `beat_bytes` bytes of its token, little-endian: byte `j` is
//! bits `8j..8j+8`. Tokens are `i64`, so a beat carries at most 8
//! significant bytes, and an 8-byte beat with its top bit set is a
//! negative token.
//!
//! Both channels check the descriptor before touching memory, and S2MM
//! writes nothing unless the whole stream fits. Neither models time: a
//! streaming phase moves its buffers first, then the platform's
//! co-simulation times the phase from its token counts, with each DMA
//! endpoint costing [`DmaEngine::cycles_for`]: `setup + beats` cycles
//! plus a DRAM burst overhead per `burst_beats` chunk.

use crate::protocol::{MemError, MemoryPort};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One DMA transfer request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaDescriptor {
    /// DRAM byte address.
    pub addr: u64,
    /// Transfer length in bytes.
    pub len: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmaError {
    Mem(MemError),
    /// S2MM: the stream carried more beats than the destination buffer
    /// holds. `got` counts the bytes up to the end of the first beat
    /// that did not fit.
    BufferOverrun {
        got: u64,
        capacity: u64,
    },
    /// Transfer length not a multiple of the stream beat size.
    LengthMisaligned {
        len: u64,
        beat_bytes: u32,
    },
    ZeroLength,
    /// S2MM: the stream produced no data at all — the transfer would
    /// silently complete with 0 bytes, which a real driver reports as an
    /// underrun/timeout rather than success.
    Underrun {
        expected: u64,
    },
}

impl From<MemError> for DmaError {
    fn from(e: MemError) -> Self {
        DmaError::Mem(e)
    }
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::Mem(e) => write!(f, "DMA memory fault: {e}"),
            DmaError::BufferOverrun { got, capacity } => {
                write!(
                    f,
                    "S2MM overrun: stream produced >{got} bytes into {capacity}-byte buffer"
                )
            }
            DmaError::LengthMisaligned { len, beat_bytes } => {
                write!(f, "length {len} not a multiple of beat size {beat_bytes}")
            }
            DmaError::ZeroLength => write!(f, "zero-length DMA transfer"),
            DmaError::Underrun { expected } => {
                write!(
                    f,
                    "S2MM underrun: stream delivered no data ({expected} bytes expected)"
                )
            }
        }
    }
}

impl std::error::Error for DmaError {}

/// Reject a zero-length descriptor or one that is not a whole number of
/// beats — the same checks in both directions.
fn check_len(desc: DmaDescriptor, beat_bytes: u32) -> Result<(), DmaError> {
    if desc.len == 0 {
        return Err(DmaError::ZeroLength);
    }
    if !desc.len.is_multiple_of(beat_bytes as u64) {
        return Err(DmaError::LengthMisaligned {
            len: desc.len,
            beat_bytes,
        });
    }
    Ok(())
}

/// MM2S: read the buffer `desc` names and unpack it into one token per
/// beat. The range is checked against `mem.size()` before the buffer is
/// allocated, so a descriptor past the end of memory is a
/// [`MemError::OutOfRange`], whatever its `len`.
pub fn mm2s(
    mem: &mut dyn MemoryPort,
    desc: DmaDescriptor,
    beat_bytes: u32,
) -> Result<Vec<i64>, DmaError> {
    let mut tokens = Vec::new();
    mm2s_into(mem, desc, beat_bytes, &mut Vec::new(), &mut tokens)?;
    Ok(tokens)
}

/// [`mm2s`] into reused buffers: the buffer's bytes pass through
/// `bytes` (resized, never shrunk) and its tokens are appended to
/// `tokens`. On an error `tokens` is left as it was.
pub fn mm2s_into(
    mem: &mut dyn MemoryPort,
    desc: DmaDescriptor,
    beat_bytes: u32,
    bytes: &mut Vec<u8>,
    tokens: &mut Vec<i64>,
) -> Result<(), DmaError> {
    check_len(desc, beat_bytes)?;
    let size = mem.size();
    if desc.addr.checked_add(desc.len).is_none_or(|end| end > size) {
        return Err(DmaError::Mem(MemError::OutOfRange {
            addr: desc.addr,
            len: usize::try_from(desc.len).unwrap_or(usize::MAX),
            size,
        }));
    }
    bytes.resize(desc.len as usize, 0);
    mem.read(desc.addr, bytes)?;
    unpack_beats(bytes, beat_bytes, tokens);
    Ok(())
}

/// S2MM: pack `tokens` into beats and write them to the buffer `desc`
/// names; returns the beats written. An empty stream is an
/// [`DmaError::Underrun`], and a stream with more beats than the buffer
/// holds a [`DmaError::BufferOverrun`] — both before memory is touched.
pub fn s2mm(
    mem: &mut dyn MemoryPort,
    desc: DmaDescriptor,
    beat_bytes: u32,
    tokens: &[i64],
) -> Result<u64, DmaError> {
    s2mm_via(mem, desc, beat_bytes, tokens, &mut Vec::new())
}

/// [`s2mm`] with the packed beats staged in the reused buffer `bytes`.
pub fn s2mm_via(
    mem: &mut dyn MemoryPort,
    desc: DmaDescriptor,
    beat_bytes: u32,
    tokens: &[i64],
    bytes: &mut Vec<u8>,
) -> Result<u64, DmaError> {
    check_len(desc, beat_bytes)?;
    if tokens.is_empty() {
        return Err(DmaError::Underrun { expected: desc.len });
    }
    let beats = tokens.len() as u64;
    if beats > desc.len / beat_bytes as u64 {
        return Err(DmaError::BufferOverrun {
            got: desc.len.saturating_add(beat_bytes as u64),
            capacity: desc.len,
        });
    }
    bytes.clear();
    pack_beats(tokens, beat_bytes, bytes);
    mem.write(desc.addr, bytes)?;
    Ok(beats)
}

/// Append one token per whole `beat_bytes`-byte beat of `bytes` to
/// `tokens`: the beat's first 8 bytes read little-endian (a wider beat's
/// further bytes do not fit a token and are dropped).
pub fn unpack_beats(bytes: &[u8], beat_bytes: u32, tokens: &mut Vec<i64>) {
    let w = beat_bytes as usize;
    let beats = bytes.chunks_exact(w);
    // One fixed-width load per beat; the widths the Otsu chain's
    // tokens move at (`Value::token_bytes`: 1 and 4) get their own loop
    // so each compiles to plain word copies.
    match w {
        1 => tokens.extend(bytes.iter().map(|&b| b as i64)),
        4 => tokens.extend(beats.map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as i64)),
        _ => tokens.extend(beats.map(|b| {
            let mut le = [0u8; 8];
            let n = w.min(8);
            le[..n].copy_from_slice(&b[..n]);
            i64::from_le_bytes(le)
        })),
    }
}

/// Append each token of `tokens` to `bytes` as one `beat_bytes`-byte
/// beat: its low bytes little-endian, zero past its eighth byte.
pub fn pack_beats(tokens: &[i64], beat_bytes: u32, bytes: &mut Vec<u8>) {
    let w = beat_bytes as usize;
    bytes.reserve(tokens.len() * w);
    match w {
        1 => bytes.extend(tokens.iter().map(|&t| t as u8)),
        4 => tokens
            .iter()
            .for_each(|&t| bytes.extend_from_slice(&(t as u32).to_le_bytes())),
        _ => {
            let n = w.min(8);
            for &t in tokens {
                bytes.extend_from_slice(&t.to_le_bytes()[..n]);
                bytes.resize(bytes.len() + (w - n), 0);
            }
        }
    }
}

/// One DMA engine's timing parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaEngine {
    pub name: String,
    /// Fixed per-transfer setup cost (descriptor fetch, channel start).
    pub setup_cycles: u32,
    /// Beats per DRAM burst (AXI4 max 256).
    pub burst_beats: u32,
    /// Extra cycles of DRAM latency per burst.
    pub burst_overhead_cycles: u32,
}

impl DmaEngine {
    pub fn new(name: &str) -> Self {
        DmaEngine {
            name: name.to_string(),
            setup_cycles: 30,
            burst_beats: 16,
            burst_overhead_cycles: 8,
        }
    }

    /// DRAM bursts a transfer of `beats` beats issues.
    pub fn bursts(&self, beats: u64) -> u64 {
        beats.div_ceil(self.burst_beats as u64)
    }

    /// Bus cycles of a transfer of `beats` beats, taken on its own.
    pub fn cycles_for(&self, beats: u64) -> u64 {
        self.setup_cycles as u64 + beats + self.bursts(beats) * self.burst_overhead_cycles as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::VecMemory;

    fn desc(addr: u64, len: u64) -> DmaDescriptor {
        DmaDescriptor { addr, len }
    }

    fn read(mem: &mut VecMemory, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0; len];
        mem.read(addr, &mut buf).unwrap();
        buf
    }

    #[test]
    fn mm2s_then_s2mm_roundtrips_data() {
        let mut mem = VecMemory::new(256);
        mem.write(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let tokens = mm2s(&mut mem, desc(0, 8), 1).unwrap();
        assert_eq!(tokens, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(s2mm(&mut mem, desc(0x40, 8), 1, &tokens), Ok(8));
        assert_eq!(read(&mut mem, 0x40, 8), [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn wide_beats_pack_little_endian() {
        let mut mem = VecMemory::new(64);
        mem.write(0, &[0x11, 0x22, 0x33, 0x44]).unwrap();
        assert_eq!(mm2s(&mut mem, desc(0, 4), 4).unwrap(), [0x4433_2211]);
        assert_eq!(s2mm(&mut mem, desc(8, 4), 4, &[0x4433_2211]), Ok(1));
        assert_eq!(read(&mut mem, 8, 4), [0x11, 0x22, 0x33, 0x44]);
    }

    #[test]
    fn s2mm_stops_at_tlast() {
        // Two tokens into a 16-byte buffer: TLAST on the second ends the
        // transfer, and the rest of the buffer keeps its old contents.
        let mut mem = VecMemory::new(64);
        mem.write(0, &[0xee; 16]).unwrap();
        assert_eq!(s2mm(&mut mem, desc(0, 16), 1, &[1, 2]), Ok(2));
        assert_eq!(read(&mut mem, 0, 4), [1, 2, 0xee, 0xee]);
    }

    #[test]
    fn s2mm_overrun_detected() {
        let mut mem = VecMemory::new(64);
        let tokens: Vec<i64> = (0..8).collect();
        assert_eq!(
            s2mm(&mut mem, desc(0, 4), 1, &tokens),
            Err(DmaError::BufferOverrun {
                got: 5,
                capacity: 4
            })
        );
        // With 2-byte beats the first beat that does not fit ends at byte 6.
        assert_eq!(
            s2mm(&mut mem, desc(0, 4), 2, &tokens[..3]),
            Err(DmaError::BufferOverrun {
                got: 6,
                capacity: 4
            })
        );
        assert_eq!(mem.resident_pages(), 0, "an overrun writes nothing");
    }

    #[test]
    fn misaligned_and_zero_lengths_rejected() {
        let mut mem = VecMemory::new(64);
        assert_eq!(
            mm2s(&mut mem, desc(0, 6), 4),
            Err(DmaError::LengthMisaligned {
                len: 6,
                beat_bytes: 4
            })
        );
        assert_eq!(mm2s(&mut mem, desc(0, 0), 4), Err(DmaError::ZeroLength));
    }

    #[test]
    fn s2mm_validates_like_mm2s() {
        // Misaligned and zero lengths are rejected in both directions, and
        // an empty stream is an underrun, not a silent 0-byte success.
        let mut mem = VecMemory::new(64);
        assert_eq!(
            s2mm(&mut mem, desc(0, 6), 4, &[1]),
            Err(DmaError::LengthMisaligned {
                len: 6,
                beat_bytes: 4
            })
        );
        assert_eq!(
            s2mm(&mut mem, desc(0, 0), 4, &[1]),
            Err(DmaError::ZeroLength)
        );
        assert_eq!(
            s2mm(&mut mem, desc(0, 8), 4, &[]),
            Err(DmaError::Underrun { expected: 8 })
        );
    }

    #[test]
    fn out_of_range_surfaces_memory_fault() {
        let mut mem = VecMemory::new(8);
        assert_eq!(
            mm2s(&mut mem, desc(4, 8), 1),
            Err(DmaError::Mem(MemError::OutOfRange {
                addr: 4,
                len: 8,
                size: 8
            }))
        );
        // S2MM writes only the bytes the stream carried: 6 of them here.
        assert_eq!(
            s2mm(&mut mem, desc(4, 8), 1, &[1; 6]),
            Err(DmaError::Mem(MemError::OutOfRange {
                addr: 4,
                len: 6,
                size: 8
            }))
        );
    }

    #[test]
    fn cycle_model_includes_setup_and_bursts() {
        let dma = DmaEngine::new("d");
        // 256 beats, 16 bursts: 30 + 256 + 16*8 = 414.
        assert_eq!(dma.bursts(256), 16);
        assert_eq!(dma.cycles_for(256), 30 + 256 + 16 * 8);
        // A partial burst costs a whole burst's overhead.
        assert_eq!(dma.cycles_for(17), 30 + 17 + 2 * 8);
    }

    #[test]
    fn mm2s_past_the_end_of_memory_fails_before_allocating() {
        // A 16 TiB descriptor over a 64-byte memory: the range check
        // must reject it before the buffer is sized.
        let mut mem = VecMemory::new(64);
        assert_eq!(
            mm2s(&mut mem, desc(0, 1 << 44), 1),
            Err(DmaError::Mem(MemError::OutOfRange {
                addr: 0,
                len: 1 << 44,
                size: 64,
            }))
        );
    }
}
