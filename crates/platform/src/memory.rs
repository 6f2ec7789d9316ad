//! Shared DRAM: a functional byte store for the Zynq DDR3.
//!
//! The store is a paged [`VecMemory`]: a board declares its full DRAM
//! size (64 MiB for the Otsu application), but only the 4 KiB pages it
//! writes are ever allocated, and untouched bytes read as 0 — exactly
//! what a zero-filled flat buffer would return. DRAM charges no time of
//! its own: the DMA traffic of a streaming phase is timed by the
//! co-simulation ([`crate::cosim`]), whose HP-port bandwidth is
//! [`crate::Board::hp_bytes_per_cycle`].

use accelsoc_axi::protocol::{MemError, MemoryPort, VecMemory};

/// DDR3 contents, exact and paged.
#[derive(Debug, Clone)]
pub struct Dram {
    mem: VecMemory,
}

impl Dram {
    /// ZedBoard: 512 MiB DDR3. `size` is configurable; it costs nothing
    /// up front, since pages are allocated on first write.
    pub fn new(size: usize) -> Self {
        Dram {
            mem: VecMemory::new(size),
        }
    }

    /// Zero the whole DRAM in place: its written pages stay allocated,
    /// and every byte reads 0 again, as on a new DRAM of the same size.
    pub fn zero(&mut self) {
        self.mem.zero();
    }

    /// Convenience: write a slice of u8 pixels starting at `addr`.
    pub fn load_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.write(addr, data)
    }

    /// Convenience: read `len` bytes at `addr`. The range is checked
    /// before the buffer is allocated.
    pub fn dump_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        let size = self.mem.size();
        if addr.checked_add(len as u64).is_none_or(|end| end > size) {
            return Err(MemError::OutOfRange { addr, len, size });
        }
        let mut buf = vec![0; len];
        self.mem.peek(addr, &mut buf)?;
        Ok(buf)
    }
}

impl MemoryPort for Dram {
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.mem.read(addr, buf)
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.mem.write(addr, data)
    }

    fn size(&self) -> u64 {
        self.mem.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_roundtrip() {
        let mut d = Dram::new(1024);
        d.load_bytes(0x100, &[7, 8, 9]).unwrap();
        assert_eq!(d.dump_bytes(0x100, 3).unwrap(), vec![7, 8, 9]);
        let mut buf = [0u8; 3];
        d.read(0x100, &mut buf).unwrap();
        assert_eq!(buf, [7, 8, 9]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = Dram::new(16);
        assert!(d.load_bytes(12, &[0; 8]).is_err());
        assert!(d.dump_bytes(20, 4).is_err());
        // `addr + len` past u64::MAX is out of range, not a panic.
        assert!(d.load_bytes(u64::MAX - 1, &[1, 2, 3, 4]).is_err());
        assert!(d.dump_bytes(u64::MAX - 1, 4).is_err());
        assert_eq!(d.dump_bytes(0, 16).unwrap(), vec![0; 16]);
    }

    #[test]
    fn zeroed_dram_reads_like_a_new_one() {
        let mut d = Dram::new(1 << 16);
        d.load_bytes(0x1ffe, &[1, 2, 3, 4]).unwrap();
        d.zero();
        assert_eq!(d.dump_bytes(0x1ff0, 32).unwrap(), vec![0; 32]);
    }

    #[test]
    fn untouched_dram_reads_zero() {
        let d = Dram::new(64 << 20);
        assert_eq!(d.dump_bytes(32 << 20, 8).unwrap(), vec![0; 8]);
    }
}
