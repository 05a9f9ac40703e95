//! Re-seal fuzzing of the snapshot decoder's structural checks. The
//! envelope checksum rejects random damage before the payload is even
//! parsed, so this test flips one bit in the memory-system section of a
//! mid-run checkpoint and then *recomputes* the FNV trailer: the bytes
//! reach the structural layer — sparse tag arrays, directory entries,
//! per-core shapes — as a hostile writer would deliver them.
//!
//! Each damaged checkpoint is decoded; a decoded one is hydrated
//! (`Machine::from_snapshot`), restored in place into a machine that is
//! mid-run itself, and both are put through `try_check_invariants`. The
//! bar is zero panics: every rejection is a typed error. Stepping a
//! machine decoded from damaged bytes is out of scope here.

use glsc::kernels::{build_named, Dataset, Variant};
use glsc::sim::{Machine, MachineConfig, MachineSnapshot};
use glsc_rng::rngs::StdRng;
use glsc_rng::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const ITERATIONS: usize = 300;

/// What one damaged checkpoint did.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// The decoder rejected it with a typed error.
    Rejected,
    /// It decoded, hydrated and restored without a panic.
    Accepted,
}

fn exercise(bytes: &[u8], live: &Machine) -> Outcome {
    let Ok(snap) = MachineSnapshot::from_bytes(bytes) else {
        return Outcome::Rejected;
    };
    let hydrated = Machine::from_snapshot(&snap);
    let _ = hydrated.mem().try_check_invariants();
    let mut pooled = live.clone();
    if pooled.restore(&snap).is_ok() {
        let _ = pooled.mem().try_check_invariants();
    }
    Outcome::Accepted
}

#[test]
fn resealed_bit_flips_in_the_memory_system_never_panic() {
    let cfg = MachineConfig::paper(2, 2, 4);
    let w = build_named("HIP", Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
    let mut m = Machine::new(cfg);
    w.image.apply(m.mem_mut().backing_mut());
    m.load_program(w.program.clone());
    for _ in 0..3_000 {
        assert!(!m.step(), "HIP/T finished before the checkpoint");
    }
    let clean = m.snapshot_bytes();
    // The memory system is the payload's last field: it ends where the
    // 8-byte checksum trailer starts.
    let mem_len = glsc_wire::to_bytes(m.mem()).len();
    let end = clean.len() - 8;
    let start = end - mem_len;
    assert!(
        !m.mem().l1(0).is_empty(),
        "checkpoint should hold live L1 lines"
    );

    let mut rng = StdRng::seed_from_u64(0x5EA1_F122);
    let (mut rejected, mut panics) = (0, Vec::new());
    for i in 0..ITERATIONS {
        let at = rng.random_range(start..end);
        let bit = rng.random_range(0..8u32);
        let mut bytes = clean.clone();
        bytes[at] ^= 1 << bit;
        let checksum = glsc_wire::fnv64(&bytes[..end]);
        bytes[end..].copy_from_slice(&checksum.to_le_bytes());
        match catch_unwind(AssertUnwindSafe(|| exercise(&bytes, &m))) {
            Ok(Outcome::Rejected) => rejected += 1,
            Ok(Outcome::Accepted) => {}
            Err(_) => panics.push((i, at - start, bit)),
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {ITERATIONS} flips panicked (iteration, offset in memory section, bit): {panics:?}",
        panics.len()
    );
    assert!(
        rejected > 0,
        "no flip was rejected; the fuzzer is not reaching the decoder"
    );
}
