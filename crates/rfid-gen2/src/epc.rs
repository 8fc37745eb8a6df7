//! Electronic Product Codes and the PC word.
//!
//! Tags backscatter a 16-bit PC (protocol control) word, their EPC (96 bits
//! for the SGTIN-96 style tags used in the paper) and a CRC-16. For the
//! simulation we mostly need EPCs as stable, unique identifiers, but the
//! encoding is implemented faithfully so frame lengths (and hence link
//! timing) are correct.

use crate::crc::crc16;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 96-bit EPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Epc {
    words: [u16; 6],
}

impl Epc {
    /// Number of bits in this EPC format.
    pub const BITS: usize = 96;

    /// Builds an EPC from six 16-bit words (most significant first).
    pub const fn from_words(words: [u16; 6]) -> Self {
        Epc { words }
    }

    /// Builds an EPC whose low 64 bits encode `serial` — handy for
    /// generating distinct EPCs for simulated tag populations. The upper 32
    /// bits carry a fixed header marking these as simulation EPCs.
    pub fn from_serial(serial: u64) -> Self {
        Epc {
            words: [
                0x3000,
                0x5749,
                (serial >> 48) as u16,
                (serial >> 32) as u16,
                (serial >> 16) as u16,
                serial as u16,
            ],
        }
    }

    /// Recovers the serial number from an EPC built by
    /// [`Epc::from_serial`].
    pub fn serial(&self) -> u64 {
        ((self.words[2] as u64) << 48)
            | ((self.words[3] as u64) << 32)
            | ((self.words[4] as u64) << 16)
            | (self.words[5] as u64)
    }

    /// The EPC's six 16-bit words, most significant first.
    pub fn words(&self) -> [u16; 6] {
        self.words
    }

    /// The EPC as 12 bytes, most significant first.
    pub fn bytes(&self) -> [u8; 12] {
        let mut out = [0u8; 12];
        for (i, w) in self.words.iter().enumerate() {
            out[2 * i] = (w >> 8) as u8;
            out[2 * i + 1] = (w & 0xFF) as u8;
        }
        out
    }

    /// The CRC-16 a tag would backscatter over PC + EPC.
    pub fn backscatter_crc(&self, pc: PcWord) -> u16 {
        let mut data = Vec::with_capacity(14);
        data.push((pc.0 >> 8) as u8);
        data.push((pc.0 & 0xFF) as u8);
        data.extend_from_slice(&self.bytes());
        crc16(&data)
    }
}

impl fmt::Display for Epc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for w in self.words {
            write!(f, "{w:04X}")?;
        }
        Ok(())
    }
}

/// The 16-bit protocol-control word preceding the EPC in tag replies. Its
/// top five bits encode the EPC length in words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PcWord(pub u16);

impl PcWord {
    /// The PC word for a plain 96-bit EPC (6 words, no extensions).
    pub fn for_epc96() -> Self {
        PcWord((6u16 & 0x1F) << 11)
    }

    /// EPC length in 16-bit words encoded in this PC.
    pub fn epc_word_count(&self) -> usize {
        ((self.0 >> 11) & 0x1F) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc16_verify;

    #[test]
    fn serial_roundtrip() {
        for serial in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(Epc::from_serial(serial).serial(), serial);
        }
    }

    #[test]
    fn distinct_serials_give_distinct_epcs() {
        let a = Epc::from_serial(1);
        let b = Epc::from_serial(2);
        assert_ne!(a, b);
        assert_ne!(a.to_string(), b.to_string());
    }

    #[test]
    fn bytes_and_words_agree() {
        let epc = Epc::from_words([0x1234, 0x5678, 0x9ABC, 0xDEF0, 0x0011, 0x2233]);
        let bytes = epc.bytes();
        assert_eq!(bytes[0], 0x12);
        assert_eq!(bytes[1], 0x34);
        assert_eq!(bytes[11], 0x33);
        assert_eq!(epc.words()[0], 0x1234);
    }

    #[test]
    fn display_is_24_hex_digits() {
        let epc = Epc::from_serial(7);
        let s = epc.to_string();
        assert_eq!(s.len(), 24);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn pc_word_encodes_length() {
        let pc = PcWord::for_epc96();
        assert_eq!(pc.epc_word_count(), 6);
    }

    #[test]
    fn backscatter_crc_verifies() {
        let epc = Epc::from_serial(123456);
        let pc = PcWord::for_epc96();
        let crc = epc.backscatter_crc(pc);
        let mut frame = Vec::new();
        frame.push((pc.0 >> 8) as u8);
        frame.push((pc.0 & 0xFF) as u8);
        frame.extend_from_slice(&epc.bytes());
        assert!(crc16_verify(&frame, crc));
    }

    #[test]
    fn epcs_order_consistently_with_serials() {
        let mut epcs: Vec<Epc> = (0..10u64).rev().map(Epc::from_serial).collect();
        epcs.sort();
        let serials: Vec<u64> = epcs.iter().map(|e| e.serial()).collect();
        assert_eq!(serials, (0..10u64).collect::<Vec<_>>());
    }
}
