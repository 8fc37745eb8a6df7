//! Property-based tests for the Gen2 MAC simulation.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_gen2::{
    crc::{crc16, crc16_verify},
    AlohaConfig, AlohaSimulator, Epc, InventoryConfig, InventoryProcess, SlotOutcome,
    TagInventoryState,
};

proptest! {
    #[test]
    fn crc16_roundtrip_any_payload(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let crc = crc16(&data);
        prop_assert!(crc16_verify(&data, crc));
    }

    #[test]
    fn crc16_detects_any_single_byte_corruption(
        data in proptest::collection::vec(any::<u8>(), 1..32),
        idx in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let crc = crc16(&data);
        let mut corrupted = data.clone();
        let i = idx.index(corrupted.len());
        corrupted[i] ^= flip;
        prop_assert!(!crc16_verify(&corrupted, crc));
    }

    #[test]
    fn epc_serial_roundtrip(serial in any::<u64>()) {
        prop_assert_eq!(Epc::from_serial(serial).serial(), serial);
    }

    #[test]
    fn aloha_round_invariants(n in 0usize..40, seed in any::<u64>(), q in 0u8..8) {
        let config = AlohaConfig { initial_q: q, ..AlohaConfig::typical() };
        let mut sim = AlohaSimulator::new(config);
        let mut tags: Vec<TagInventoryState> =
            (0..n as u64).map(|i| TagInventoryState::new(Epc::from_serial(i))).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (outcomes, stats) = sim.run_round(&mut tags, &mut rng);
        prop_assert_eq!(outcomes.len(), stats.slots);
        prop_assert_eq!(stats.slots, 1usize << q);
        prop_assert_eq!(stats.singulated + stats.collisions + stats.empties, stats.slots);
        // No tag can be singulated more than once in a round (session flag
        // flips on ACK).
        let mut seen = std::collections::HashSet::new();
        for (_, o) in &outcomes {
            if let SlotOutcome::Singulated(epc) = o {
                prop_assert!(seen.insert(*epc), "tag singulated twice in one round");
            }
        }
        // Singulated count can never exceed the population.
        prop_assert!(stats.singulated <= n);
    }

    #[test]
    fn inventory_time_is_monotone(n in 1usize..20, seed in any::<u64>(), rounds in 1usize..10) {
        let mut p = InventoryProcess::new(InventoryConfig::typical(), seed);
        let epcs: Vec<Epc> = (0..n as u64).map(Epc::from_serial).collect();
        let mut last = p.now();
        let mut last_event_time = 0.0;
        for _ in 0..rounds {
            let (events, _) = p.run_round(&epcs);
            prop_assert!(p.now() > last);
            for e in events {
                prop_assert!(e.time_s >= last_event_time);
                prop_assert!(e.time_s <= p.now());
                last_event_time = e.time_s;
            }
            last = p.now();
        }
    }
}
