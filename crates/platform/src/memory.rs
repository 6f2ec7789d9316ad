//! Shared DRAM model: functional byte store plus a latency/bandwidth cost
//! model for the Zynq DDR3 controller.
//!
//! The store is a paged [`VecMemory`]: a board declares its full DRAM
//! size (64 MiB for the Otsu application), but only the 4 KiB pages it
//! writes are ever allocated, and untouched bytes read as 0 — exactly
//! what a zero-filled flat buffer would return.

use accelsoc_axi::protocol::{MemError, MemoryPort, VecMemory};

/// DDR3 model. Functional storage is exact; timing is
/// `latency + bytes / bytes_per_cycle` in memory-controller cycles.
#[derive(Debug, Clone)]
pub struct Dram {
    mem: VecMemory,
    /// First-access latency in controller cycles.
    pub latency_cycles: u64,
    /// Sustained bandwidth: bytes transferred per controller cycle.
    pub bytes_per_cycle: u64,
    /// Cumulative bytes read/written (utilisation stats).
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl Dram {
    /// ZedBoard: 512 MiB DDR3. `size` is configurable; it costs nothing
    /// up front, since pages are allocated on first write.
    pub fn new(size: usize) -> Self {
        Dram {
            mem: VecMemory::new(size),
            latency_cycles: 20,
            bytes_per_cycle: 4,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Cost in memory cycles of moving `bytes` in one streak.
    pub fn access_cycles(&self, bytes: u64) -> u64 {
        self.latency_cycles + bytes.div_ceil(self.bytes_per_cycle)
    }

    /// Convenience: write a slice of u8 pixels starting at `addr`.
    pub fn load_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.write(addr, data)
    }

    /// Debug read: `len` bytes at `addr` **without** touching the
    /// utilisation counters — reported DRAM traffic only counts
    /// simulated accesses through the [`MemoryPort`] interface.
    pub fn peek_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        let size = self.mem.size();
        if addr.checked_add(len as u64).is_none_or(|end| end > size) {
            return Err(MemError::OutOfRange { addr, len, size });
        }
        let mut buf = vec![0; len];
        self.mem.peek(addr, &mut buf)?;
        Ok(buf)
    }

    /// Convenience: read `len` bytes at `addr`. A debug dump — routed
    /// around the stat counters (see [`Dram::peek_bytes`]).
    pub fn dump_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        self.peek_bytes(addr, len)
    }
}

impl MemoryPort for Dram {
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.mem.read(addr, buf)?;
        self.bytes_read += buf.len() as u64;
        Ok(())
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.mem.write(addr, data)?;
        self.bytes_written += data.len() as u64;
        Ok(())
    }

    fn size(&self) -> u64 {
        self.mem.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_roundtrip_and_stats() {
        let mut d = Dram::new(1024);
        d.load_bytes(0x100, &[7, 8, 9]).unwrap();
        assert_eq!(d.dump_bytes(0x100, 3).unwrap(), vec![7, 8, 9]);
        assert_eq!(d.bytes_written, 3);
        // Debug dumps do not inflate the read-utilisation counter.
        assert_eq!(d.bytes_read, 0);
    }

    #[test]
    fn simulated_reads_still_counted() {
        let mut d = Dram::new(64);
        d.load_bytes(0, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        d.read(0, &mut buf).unwrap();
        assert_eq!(d.bytes_read, 4);
        // A peek in between changes nothing.
        assert_eq!(d.peek_bytes(0, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(d.bytes_read, 4);
    }

    #[test]
    fn access_cycles_scale_with_size() {
        let d = Dram::new(16);
        assert_eq!(d.access_cycles(4), 20 + 1);
        assert_eq!(d.access_cycles(400), 20 + 100);
        assert!(d.access_cycles(4096) > d.access_cycles(64));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = Dram::new(16);
        assert!(d.load_bytes(12, &[0; 8]).is_err());
        assert!(d.dump_bytes(20, 4).is_err());
        // `addr + len` past u64::MAX is out of range, not a panic.
        assert!(d.load_bytes(u64::MAX - 1, &[1, 2, 3, 4]).is_err());
        assert!(d.peek_bytes(u64::MAX - 1, 4).is_err());
        assert_eq!(d.bytes_written, 0);
    }

    #[test]
    fn untouched_dram_reads_zero() {
        let d = Dram::new(64 << 20);
        assert_eq!(d.peek_bytes(32 << 20, 8).unwrap(), vec![0; 8]);
    }
}
