//! Deterministic snapshot-size gate. Checkpoint bytes are a pure
//! function of simulated state, so these bounds are noise-free on any
//! host: a checkpoint must cost the live state, not the cache geometry.
//! An empty machine's L1s and L2 banks hold no lines, so its snapshot is
//! a few KB; before sparse tag arrays (format v2) it was 267 KB (1x1)
//! and 294 KB (4x4), almost all length prefixes of empty sets.

use glsc::kernels::{build_named, Dataset, Variant};
use glsc::sim::{Machine, MachineConfig, MachineSnapshot, SlicedRun};

/// Size of the HIP/A/GLSC 1x1 checkpoint at its first 20k-cycle pause
/// under snapshot format v2, the dense encoding.
const HIP_A_1X1_20K_V2_BYTES: usize = 401_833;

/// Encodes through both public paths and checks they agree byte for byte.
fn checkpoint_bytes(m: &Machine) -> usize {
    let direct = m.snapshot_bytes();
    assert_eq!(
        direct,
        m.snapshot().to_bytes(),
        "snapshot_bytes() and snapshot().to_bytes() disagree"
    );
    let decoded = MachineSnapshot::from_bytes(&direct).expect("decodes");
    assert_eq!(decoded.to_bytes(), direct, "round trip not byte-identical");
    direct.len()
}

#[test]
fn empty_machine_snapshots_are_small() {
    for (cores, tpc, bound) in [(1, 1, 8 * 1024), (4, 4, 32 * 1024)] {
        let m = Machine::new(MachineConfig::paper(cores, tpc, 4));
        let len = checkpoint_bytes(&m);
        assert!(
            len <= bound,
            "empty {cores}x{tpc} snapshot is {len} bytes, bound {bound}"
        );
    }
}

#[test]
fn first_service_checkpoint_is_at_most_half_its_dense_size() {
    // Mounted the way the service mounts a fresh job: published
    // copy-on-write base, program loaded, stepped one 20k-cycle quantum.
    let cfg = MachineConfig::paper(1, 1, 4);
    let w = build_named("HIP", Dataset::A, Variant::Glsc, &cfg).expect("known kernel");
    let mut m = Machine::new(cfg);
    m.mem_mut().backing_mut().set_base(w.image.publish());
    m.load_program(w.program.clone());
    let mut run = SlicedRun::new(&m);
    assert!(
        m.run_for(&mut run, 20_000).unwrap().is_none(),
        "HIP/A finished early"
    );
    let len = checkpoint_bytes(&m);
    assert!(
        len * 2 <= HIP_A_1X1_20K_V2_BYTES,
        "HIP/A/GLSC 1x1 checkpoint at cycle {} is {len} bytes, more than half of \
         the dense encoding's {HIP_A_1X1_20K_V2_BYTES}",
        m.cycle()
    );
}
