//! Inter-board stream link endpoints.
//!
//! A cut edge of a multi-board partition compiles into a **tx endpoint**
//! on the source board and an **rx endpoint** on the destination board,
//! joined by a serial wire. Functionally the pair is just an
//! [`AxiStreamChannel`] whose bounded
//! FIFO models the receiver's skid buffer: the tx side pushes words until
//! the FIFO fills (each rejected push is a backpressure event, counted by
//! the channel itself), the rx side drains it. Timing is layered on top
//! by the platform's multi-board co-simulation; this module only supplies
//! the word-level handshake and its counters.

use crate::stream::{AxiStreamChannel, Beat, StreamError};
use serde::{Deserialize, Serialize};

/// Word-level accounting of one packet moved across a link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkTransfer {
    /// Payload words pushed through the FIFO.
    pub words: u64,
    /// Pushes rejected because the receive FIFO was full (each one is a
    /// producer stall at the handshake level).
    pub full_events: u64,
}

/// The tx/rx endpoint pair of one inter-board link.
///
/// Owns the bounded channel between the boards plus cumulative counters
/// across all packets the link ever carried.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkEndpoints {
    channel: AxiStreamChannel,
    /// Packets (activations) carried so far.
    pub packets: u64,
    /// Payload words carried so far.
    pub words: u64,
}

impl LinkEndpoints {
    /// `fifo_depth` is the receive-side skid buffer in words.
    pub fn new(name: &str, width_bits: u32, fifo_depth: usize) -> Self {
        LinkEndpoints {
            channel: AxiStreamChannel::new(name, width_bits, fifo_depth),
            packets: 0,
            words: 0,
        }
    }

    /// Move one `words`-long packet through the FIFO: push until full,
    /// drain one word per rejected push, repeat — the lock-step schedule
    /// of a producer and consumer running at the same word rate. Returns
    /// the per-packet accounting; cumulative stats live on `self` and the
    /// underlying channel.
    pub fn transfer_packet(&mut self, words: u64) -> LinkTransfer {
        let mut sent = 0u64;
        let mut full = 0u64;
        while sent < words {
            let beat = Beat {
                data: sent,
                last: sent + 1 == words,
            };
            match self.channel.push(beat) {
                Ok(()) => sent += 1,
                Err(StreamError::Full) => {
                    full += 1;
                    // The consumer drains one word, freeing a slot.
                    self.channel.pop();
                }
            }
        }
        // Drain the tail so the next packet starts with an empty FIFO.
        while self.channel.pop().is_some() {}
        self.packets += 1;
        self.words += words;
        LinkTransfer {
            words,
            full_events: full,
        }
    }

    /// Cumulative backpressure events counted by the underlying channel.
    pub fn backpressure_events(&self) -> u64 {
        self.channel.backpressure_events
    }

    /// Cumulative beats carried by the underlying channel.
    pub fn beats_transferred(&self) -> u64 {
        self.channel.beats_transferred
    }

    pub fn fifo_depth(&self) -> usize {
        self.channel.capacity()
    }

    pub fn width_bits(&self) -> u32 {
        self.channel.width_bits
    }

    pub fn name(&self) -> &str {
        &self.channel.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_packet_sees_no_backpressure() {
        let mut link = LinkEndpoints::new("l0", 32, 16);
        let t = link.transfer_packet(16);
        assert_eq!(t.words, 16);
        assert_eq!(t.full_events, 0);
        assert_eq!(link.backpressure_events(), 0);
        assert_eq!(link.beats_transferred(), 16);
    }

    #[test]
    fn long_packet_backpressures_past_fifo_depth() {
        let mut link = LinkEndpoints::new("l1", 32, 8);
        let t = link.transfer_packet(100);
        // First 8 words fill the FIFO; every further word stalls once.
        assert_eq!(t.full_events, 92);
        assert_eq!(link.backpressure_events(), 92);
        assert_eq!(link.words, 100);
    }

    #[test]
    fn counters_accumulate_across_packets() {
        let mut link = LinkEndpoints::new("l2", 32, 4);
        link.transfer_packet(10);
        link.transfer_packet(10);
        assert_eq!(link.packets, 2);
        assert_eq!(link.words, 20);
        assert_eq!(link.backpressure_events(), 12);
    }
}
