//! # rfid-gen2
//!
//! A simulation of the EPCglobal Class-1 Generation-2 (C1G2 / ISO 18000-6C)
//! UHF air protocol at the level of detail the STPP evaluation depends on.
//!
//! The paper's reader "continuously interrogates" the tag population while
//! it (or the tags) move. What limits the quality of the resulting phase
//! profiles is the **per-tag read rate**: a COTS reader singulates tags via
//! framed slotted ALOHA, so the more tags share the reading zone, the fewer
//! reads each tag gets per second (Table 1 of the paper shows the ordering
//! accuracy degrading as the population grows for exactly this reason).
//!
//! This crate models:
//!
//! * [`crc`] — the CRC-5 and CRC-16 used by Gen2 frames,
//! * [`epc`] — 96-bit EPCs and the PC word,
//! * [`timing`] — FM0/Miller link timing, from which slot and singulation
//!   durations (and hence read rates) are derived,
//! * [`tag`] — the tag-side inventory state machine (ready / arbitrate /
//!   reply / acknowledged, session flags),
//! * [`aloha`] — framed slotted ALOHA with the Q-algorithm,
//! * [`inventory`] — a continuous inventory process producing a timestamped
//!   stream of successful singulations, which the reader simulation turns
//!   into phase/RSSI reports.
//!
//! Everything is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aloha;
pub mod crc;
pub mod epc;
pub mod inventory;
pub mod tag;
pub mod timing;

pub use aloha::{AlohaConfig, AlohaSimulator, RoundStats, SlotOutcome};
pub use epc::{Epc, PcWord};
pub use inventory::{InventoryConfig, InventoryEvent, InventoryProcess};
pub use tag::{InventoriedFlag, Session, TagInventoryState, TagState};
pub use timing::{LinkTiming, TagEncoding};
