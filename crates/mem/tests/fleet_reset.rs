//! Fleet-engine plumbing at the memory-system level (DESIGN.md §13):
//! `MemorySystem::reset` must return a dirtied system to a state
//! behaviorally indistinguishable from a fresh one, and the CoW backing
//! layer must compose with chaos jitter and snapshot/restore.

use glsc_mem::{Backing, ChaosConfig, FaultPlan, MemConfig, MemOp, MemSnapshot, MemorySystem};
use std::sync::Arc;

fn sys(cores: usize) -> MemorySystem {
    MemorySystem::new(MemConfig::default(), cores, 4)
}

/// Drives a fixed mixed-op sequence and returns every completion cycle
/// plus a stats digest.
fn drive(m: &mut MemorySystem) -> (Vec<u64>, String) {
    let mut dones = Vec::new();
    let mut now = 0;
    for i in 0..200u64 {
        let core = (i % m.num_cores() as u64) as usize;
        let tid = (i % 4) as u8;
        let addr = 0x1000 + (i * 52) % 0x4000;
        let addr = addr & !3;
        let op = match i % 5 {
            0 | 3 => MemOp::Load,
            1 => MemOp::Store,
            2 => MemOp::LoadLinked,
            _ => MemOp::StoreCond,
        };
        let r = m.access(core, tid, op, addr, now);
        dones.push(r.done);
        now += 7;
    }
    (dones, format!("{:?}", m.stats()))
}

#[test]
fn reset_system_is_indistinguishable_from_fresh() {
    let mut fresh = sys(2);
    let (want_dones, want_stats) = drive(&mut fresh);

    // Dirty a second system thoroughly — accesses, a fault plan, backing
    // writes — then reset and replay the same sequence.
    let mut reused = sys(2);
    reused.install_fault_plan(FaultPlan::from_seed(9));
    let _ = drive(&mut reused);
    reused.backing_mut().write_u32(0x8000, 77);
    reused.reset();

    assert!(reused.fault_plan().is_none(), "reset uninstalls the plan");
    assert_eq!(reused.backing().resident_pages(), 0);
    let (got_dones, got_stats) = drive(&mut reused);
    assert_eq!(got_dones, want_dones, "timing must replay bit-identically");
    assert_eq!(
        got_stats, want_stats,
        "counters must replay bit-identically"
    );
}

#[test]
fn reset_unmounts_cow_base() {
    let mut img = Backing::new();
    img.write_u32(0x1000, 5);
    let base = img.freeze();
    let mut m = sys(1);
    m.backing_mut().set_base(base);
    assert_eq!(m.backing().read_u32(0x1000), 5);
    m.reset();
    assert_eq!(m.backing().base_pages(), 0);
    assert_eq!(m.backing().read_u32(0x1000), 0);
}

/// DRAM jitter perturbs timing only; the functional CoW image — shared
/// base and private overlay — must be byte-identical with and without the
/// fault plan, and the base must stay pristine under both.
#[test]
fn cow_backing_is_untouched_by_dram_jitter() {
    let mut img = Backing::new();
    for i in 0..64u64 {
        img.write_u32(0x1000 + 4 * i, (i * 3 + 1) as u32);
    }
    let base = img.freeze();

    let run = |chaos: bool| -> (Vec<u32>, usize) {
        let mut m = sys(1);
        m.backing_mut().set_base(Arc::clone(&base));
        if chaos {
            m.install_fault_plan(FaultPlan::new(ChaosConfig {
                period: 1,
                dram_jitter_prob: 1.0,
                dram_jitter_max: 32,
                ..ChaosConfig::from_seed(3)
            }));
        }
        let mut now = 0;
        for i in 0..64u64 {
            let addr = 0x1000 + 4 * i;
            let r = m.access(0, 0, MemOp::Load, addr, now);
            now = r.done;
            let v = m.backing().read_u32(addr);
            m.backing_mut().write_u32(addr, v + 1);
        }
        if chaos {
            let st = m.chaos_stats().expect("plan installed");
            assert!(st.jitter_events > 0, "jitter must actually fire");
        }
        (
            m.backing().read_u32_vec(0x1000, 64),
            m.backing().resident_pages(),
        )
    };

    let (quiet, quiet_pages) = run(false);
    let (noisy, noisy_pages) = run(true);
    assert_eq!(quiet, noisy, "jitter must not change functional values");
    assert_eq!(quiet_pages, noisy_pages);
    // The shared base still holds the original values.
    let mut probe = Backing::new();
    probe.set_base(base);
    assert_eq!(probe.read_u32(0x1000), 1);
}

/// Snapshot/restore must capture the CoW overlay exactly: private pages
/// deep-copied, base remounted, later writes discarded on restore.
#[test]
fn snapshot_restore_with_cow_resident_pages() {
    let mut img = Backing::new();
    img.write_u32(0x2000, 10);
    img.write_u32(0x3000, 20);
    let base = img.freeze();

    let mut m = sys(1);
    m.backing_mut().set_base(Arc::clone(&base));
    // Materialize one page via CoW, leave the other untouched.
    m.backing_mut().write_u32(0x2000, 11);
    let _ = m.access(0, 0, MemOp::Load, 0x2000, 0);
    let snap = m.snapshot();

    // Diverge: touch both pages and more timing state.
    m.backing_mut().write_u32(0x2000, 99);
    m.backing_mut().write_u32(0x3000, 99);
    let _ = m.access(0, 0, MemOp::Store, 0x3000, 500);

    m.restore(&snap);
    assert_eq!(m.backing().read_u32(0x2000), 11, "private page restored");
    assert_eq!(m.backing().read_u32(0x3000), 20, "fallthrough restored");
    assert_eq!(m.backing().resident_pages(), 1);
    assert_eq!(m.backing().base_pages(), 2);
    // And the restored system evolves independently of the snapshot.
    m.backing_mut().write_u32(0x3000, 21);
    assert_eq!(m.backing().read_u32(0x3000), 21);
    let mut probe = Backing::new();
    probe.set_base(base);
    assert_eq!(probe.read_u32(0x3000), 20);
}

/// In-place restore has one path, and it needs a snapshot of the same
/// shape: a mismatch is the caller's bug, not a request to rebuild.
#[test]
#[should_panic(expected = "differently shaped")]
fn restore_rejects_a_differently_shaped_snapshot() {
    let snap = sys(2).snapshot();
    sys(1).restore(&snap);
}

/// In-place restore (clear through the touch log, copy only live sets
/// and pages) must leave a dirtied pooled system exactly where the
/// snapshot was — and so must hydrating one from the sparse encoding.
#[test]
fn in_place_and_decoded_restores_replay_identically() {
    let mut orig = sys(2);
    let _ = drive(&mut orig);
    orig.backing_mut().write_u32(0x8000, 5);
    let snap = orig.snapshot();
    let want = drive(&mut orig);

    let mut pooled = sys(2);
    pooled.install_fault_plan(FaultPlan::from_seed(3));
    let _ = drive(&mut pooled);
    pooled.backing_mut().write_u32(0x8000, 6);
    pooled.backing_mut().write_u32(0x9000, 7);
    pooled.restore(&snap);
    assert!(pooled.fault_plan().is_none());
    assert_eq!(pooled.backing().read_u32(0x8000), 5);
    assert_eq!(pooled.backing().read_u32(0x9000), 0);
    assert_eq!(drive(&mut pooled), want, "in-place restore diverged");

    let bytes = glsc_wire::to_bytes(&snap);
    let mut r = glsc_wire::Reader::new(&bytes);
    let decoded = MemSnapshot::decode_for(&mut r, &MemConfig::default()).unwrap();
    r.finish().unwrap();
    assert_eq!(glsc_wire::to_bytes(&decoded), bytes);
    let mut hydrated = MemorySystem::from_snapshot(&decoded);
    assert_eq!(drive(&mut hydrated), want, "decoded restore diverged");

    // A snapshot captured under another memory configuration is refused
    // before any of its caches are decoded.
    let other = MemConfig {
        l2_assoc: 4,
        ..MemConfig::default()
    };
    let err = MemSnapshot::decode_for(&mut glsc_wire::Reader::new(&bytes), &other).unwrap_err();
    assert!(
        matches!(
            err,
            glsc_wire::WireError::Invalid {
                what: "memory config",
                ..
            }
        ),
        "{err:?}"
    );
}
