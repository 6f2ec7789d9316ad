//! Common protocol types shared by the AXI models: response codes, the
//! [`MemoryPort`] contract DMA engines and the CPU model use to touch
//! memory, and [`VecMemory`], a sparse in-process store behind it.
//!
//! `VecMemory` keeps its contents in 4 KiB pages that are allocated on
//! the first write into them; a byte that was never written reads as 0.
//! A simulated board declares tens of MiB of DRAM but moves a few KiB
//! per phase, so only the touched pages cost time or memory. Every
//! access is range-checked without overflow, so an address near the top
//! of the 64-bit space is a [`MemError::OutOfRange`], never a panic.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// AXI response codes (subset relevant at transaction level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AxiResp {
    /// OKAY — transfer succeeded.
    Okay,
    /// SLVERR — the addressed slave signalled an error.
    SlvErr,
    /// DECERR — no slave decodes the address.
    DecErr,
}

/// Errors raised by memory-port accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Access beyond the end of the memory region.
    OutOfRange { addr: u64, len: usize, size: u64 },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len, size } => write!(
                f,
                "memory access at 0x{addr:x}+{len} exceeds region size 0x{size:x}"
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// A byte-addressable memory port — the contract DMA engines and the CPU
/// model use to touch DRAM. Implementations may track access statistics
/// and latency.
pub trait MemoryPort {
    /// Fill `buf` from `addr`.
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemError>;
    /// Write `data` at `addr`.
    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError>;
    /// Size of the region in bytes.
    fn size(&self) -> u64;
}

/// Bytes per page of a [`VecMemory`].
pub const PAGE_BYTES: usize = 4096;

/// A plain in-process memory, usable in tests and as the backing store of
/// the platform DRAM model. Pages are allocated on first write (see the
/// module docs); reads of untouched pages allocate nothing.
#[derive(Debug, Clone)]
pub struct VecMemory {
    size: u64,
    pages: BTreeMap<u64, Box<[u8]>>,
}

impl VecMemory {
    pub fn new(size: usize) -> Self {
        VecMemory {
            size: size as u64,
            pages: BTreeMap::new(),
        }
    }

    /// Pages allocated so far (each written at least once).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Fill `buf` from `addr` — [`MemoryPort::read`] without needing
    /// `&mut self`, for debug dumps that must not count as traffic.
    pub fn peek(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(addr, buf.len())?;
        for (page, off, span) in page_spans(addr, buf.len()) {
            let dst = &mut buf[span];
            match self.pages.get(&page) {
                Some(p) => dst.copy_from_slice(&p[off..off + dst.len()]),
                None => dst.fill(0),
            }
        }
        Ok(())
    }

    fn check(&self, addr: u64, len: usize) -> Result<(), MemError> {
        match addr.checked_add(len as u64) {
            Some(end) if end <= self.size => Ok(()),
            _ => Err(MemError::OutOfRange {
                addr,
                len,
                size: self.size,
            }),
        }
    }
}

/// Split the in-range access `[addr, addr + len)` at page boundaries:
/// (page index, offset within the page, range within the caller's
/// buffer) per touched page.
fn page_spans(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = addr + done as u64;
            let off = (at % PAGE_BYTES as u64) as usize;
            let n = (PAGE_BYTES - off).min(len - done);
            done += n;
            (at / PAGE_BYTES as u64, off, done - n..done)
        })
    })
}

impl MemoryPort for VecMemory {
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.peek(addr, buf)
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.check(addr, data.len())?;
        for (page, off, span) in page_spans(addr, data.len()) {
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| vec![0; PAGE_BYTES].into_boxed_slice());
            p[off..off + span.len()].copy_from_slice(&data[span]);
        }
        Ok(())
    }

    fn size(&self) -> u64 {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_memory_roundtrip() {
        let mut m = VecMemory::new(64);
        m.write(8, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        m.read(8, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(m.size(), 64);
    }

    #[test]
    fn out_of_range_detected() {
        let mut m = VecMemory::new(16);
        let err = m.write(14, &[0; 4]).unwrap_err();
        assert_eq!(
            err,
            MemError::OutOfRange {
                addr: 14,
                len: 4,
                size: 16
            }
        );
        let mut buf = [0u8; 8];
        assert!(m.read(12, &mut buf).is_err());
    }

    #[test]
    fn boundary_access_ok() {
        let mut m = VecMemory::new(16);
        m.write(12, &[9; 4]).unwrap();
        let mut buf = [0u8; 4];
        m.read(12, &mut buf).unwrap();
        assert_eq!(buf, [9; 4]);
    }

    #[test]
    fn pages_allocate_on_first_write_only() {
        let mut m = VecMemory::new(64 << 20);
        let mut buf = vec![0xffu8; 3 * PAGE_BYTES];
        m.read(0x1000, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "untouched bytes read as 0");
        assert_eq!(m.resident_pages(), 0, "reads allocate nothing");
        // Two bytes either side of a page boundary touch two pages.
        m.write(PAGE_BYTES as u64 - 2, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.resident_pages(), 2);
        let mut buf = [0u8; 6];
        m.read(PAGE_BYTES as u64 - 3, &mut buf).unwrap();
        assert_eq!(buf, [0, 1, 2, 3, 4, 0]);
    }

    /// `addr + len` overflows `u64`: the range check must not wrap.
    const TOP: MemError = MemError::OutOfRange {
        addr: u64::MAX - 1,
        len: 4,
        size: 64,
    };

    #[test]
    fn write_near_the_top_of_the_address_space_is_a_typed_error() {
        let mut m = VecMemory::new(64);
        assert_eq!(m.write(u64::MAX - 1, &[1, 2, 3, 4]).unwrap_err(), TOP);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_near_the_top_of_the_address_space_is_a_typed_error() {
        let mut m = VecMemory::new(64);
        let mut buf = [0u8; 4];
        assert_eq!(m.read(u64::MAX - 1, &mut buf).unwrap_err(), TOP);
    }
}
