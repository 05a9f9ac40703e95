//! Differential testing: random single-threaded programs must produce
//! identical architectural and memory state on the cycle-level machine and
//! the functional reference interpreter.
//!
//! Originally written with `proptest`; the offline build environment cannot
//! fetch it, so the cases now run as seeded loops over `glsc-rng`. Each
//! case prints its seed on failure for reproduction.

use glsc::isa::{AluOp, CmpOp, FpOp, MReg, Program, ProgramBuilder, Reg, VReg};
use glsc::sim::{
    reference, Fleet, FleetJob, Machine, MachineConfig, RunReport, SimError, SlicedRun,
};
use glsc_rng::rngs::StdRng;
use glsc_rng::{Rng, SeedableRng};

const WINDOW_BASE: i64 = 0x1_0000;
const WINDOW_WORDS: u32 = 256;

/// One random instruction "recipe".
#[derive(Clone, Debug)]
enum Op {
    Li { rd: u8, imm: i32 },
    Alu { op: AluOp, rd: u8, rs: u8, imm: i32 },
    AluRr { op: AluOp, rd: u8, rs: u8, rt: u8 },
    Fp { op: FpOp, rd: u8, rs: u8, rt: u8 },
    Cmp { op: CmpOp, rd: u8, rs: u8, imm: i32 },
    Load { rd: u8, word: u32 },
    Store { rs: u8, word: u32 },
    Ll { rd: u8, word: u32 },
    Sc { rd: u8, rs: u8, word: u32 },
    VAluImm { op: AluOp, vd: u8, vs: u8, imm: i32 },
    VFp { op: FpOp, vd: u8, vs: u8, vt: u8 },
    VSplat { vd: u8, rs: u8 },
    VIota { vd: u8 },
    VCmp { op: CmpOp, fd: u8, vs: u8, imm: i32 },
    MaskCombine { fd: u8, fa: u8, fb: u8, kind: u8 },
    VLoad { vd: u8, word: u32 },
    VStore { vs: u8, word: u32 },
    VGather { vd: u8, vidx: u8 },
    VScatter { vs: u8, vidx: u8 },
    GatherLink { fd: u8, vd: u8, vidx: u8, fsrc: u8 },
    ScatterCond { fd: u8, vs: u8, vidx: u8, fsrc: u8 },
}

const ALU_OPS: [AluOp; 12] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Min,
    AluOp::Max,
];

const FP_OPS: [FpOp; 6] = [
    FpOp::Add,
    FpOp::Sub,
    FpOp::Mul,
    FpOp::Div,
    FpOp::Min,
    FpOp::Max,
];

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn random_op(rng: &mut StdRng) -> Op {
    // r3..r11: leave r0/r1 (ids) and r2 (window base) alone.
    let r = |rng: &mut StdRng| rng.random_range(3..12u8);
    let v = |rng: &mut StdRng| rng.random_range(0..8u8);
    let f = |rng: &mut StdRng| rng.random_range(0..4u8);
    let word = |rng: &mut StdRng| rng.random_range(0..WINDOW_WORDS);
    let imm = |rng: &mut StdRng| rng.random::<u32>() as i32;
    let alu = |rng: &mut StdRng| ALU_OPS[rng.random_range(0..ALU_OPS.len())];
    let fp = |rng: &mut StdRng| FP_OPS[rng.random_range(0..FP_OPS.len())];
    let cmp = |rng: &mut StdRng| CMP_OPS[rng.random_range(0..CMP_OPS.len())];
    match rng.random_range(0..21usize) {
        0 => Op::Li {
            rd: r(rng),
            imm: imm(rng),
        },
        1 => Op::Alu {
            op: alu(rng),
            rd: r(rng),
            rs: r(rng),
            imm: imm(rng),
        },
        2 => Op::AluRr {
            op: alu(rng),
            rd: r(rng),
            rs: r(rng),
            rt: r(rng),
        },
        3 => Op::Fp {
            op: fp(rng),
            rd: r(rng),
            rs: r(rng),
            rt: r(rng),
        },
        4 => Op::Cmp {
            op: cmp(rng),
            rd: r(rng),
            rs: r(rng),
            imm: imm(rng),
        },
        5 => Op::Load {
            rd: r(rng),
            word: word(rng),
        },
        6 => Op::Store {
            rs: r(rng),
            word: word(rng),
        },
        7 => Op::Ll {
            rd: r(rng),
            word: word(rng),
        },
        8 => Op::Sc {
            rd: r(rng),
            rs: r(rng),
            word: word(rng),
        },
        9 => Op::VAluImm {
            op: alu(rng),
            vd: v(rng),
            vs: v(rng),
            imm: imm(rng),
        },
        10 => Op::VFp {
            op: fp(rng),
            vd: v(rng),
            vs: v(rng),
            vt: v(rng),
        },
        11 => Op::VSplat {
            vd: v(rng),
            rs: r(rng),
        },
        12 => Op::VIota { vd: v(rng) },
        13 => Op::VCmp {
            op: cmp(rng),
            fd: f(rng),
            vs: v(rng),
            imm: imm(rng),
        },
        14 => Op::MaskCombine {
            fd: f(rng),
            fa: f(rng),
            fb: f(rng),
            kind: rng.random_range(0..4u8),
        },
        15 => Op::VLoad {
            vd: v(rng),
            word: word(rng),
        },
        16 => Op::VStore {
            vs: v(rng),
            word: word(rng),
        },
        17 => Op::VGather {
            vd: v(rng),
            vidx: v(rng),
        },
        18 => Op::VScatter {
            vs: v(rng),
            vidx: v(rng),
        },
        19 => Op::GatherLink {
            fd: f(rng),
            vd: v(rng),
            vidx: v(rng),
            fsrc: f(rng),
        },
        _ => Op::ScatterCond {
            fd: f(rng),
            vs: v(rng),
            vidx: v(rng),
            fsrc: f(rng),
        },
    }
}

/// Assembles the recipe into a straight-line program. Indexed ops bound
/// their index vector into the window first (`vand idx, idx, 255`), using
/// v15 as scratch so the recipe's registers are untouched.
fn assemble(ops: &[Op], width: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let base = Reg::new(2);
    let vidx_scratch = VReg::new(15);
    b.li(base, WINDOW_BASE);
    let vload_off = |w: u32| {
        // Keep the full vector inside the window.
        (4 * w.min(WINDOW_WORDS.saturating_sub(width as u32))) as i64
    };
    for op in ops {
        match *op {
            Op::Li { rd, imm } => {
                b.li(Reg::new(rd), imm as i64);
            }
            Op::Alu { op, rd, rs, imm } => {
                b.alu(op, Reg::new(rd), Reg::new(rs), imm as i64);
            }
            Op::AluRr { op, rd, rs, rt } => {
                b.alu(op, Reg::new(rd), Reg::new(rs), Reg::new(rt));
            }
            Op::Fp { op, rd, rs, rt } => {
                b.emit(glsc::isa::Instr::Fp {
                    op,
                    rd: Reg::new(rd),
                    rs: Reg::new(rs),
                    rt: Reg::new(rt),
                });
            }
            Op::Cmp { op, rd, rs, imm } => {
                b.cmp(op, Reg::new(rd), Reg::new(rs), imm as i64);
            }
            Op::Load { rd, word } => {
                b.ld(Reg::new(rd), base, (4 * word) as i64);
            }
            Op::Store { rs, word } => {
                b.st(Reg::new(rs), base, (4 * word) as i64);
            }
            Op::Ll { rd, word } => {
                b.ll(Reg::new(rd), base, (4 * word) as i64);
            }
            Op::Sc { rd, rs, word } => {
                b.sc(Reg::new(rd), Reg::new(rs), base, (4 * word) as i64);
            }
            Op::VAluImm { op, vd, vs, imm } => {
                b.valu(op, VReg::new(vd), VReg::new(vs), imm as i64, None);
            }
            Op::VFp { op, vd, vs, vt } => {
                b.vfp(op, VReg::new(vd), VReg::new(vs), VReg::new(vt), None);
            }
            Op::VSplat { vd, rs } => {
                b.vsplat(VReg::new(vd), Reg::new(rs));
            }
            Op::VIota { vd } => {
                b.viota(VReg::new(vd));
            }
            Op::VCmp { op, fd, vs, imm } => {
                b.vcmp(op, MReg::new(fd), VReg::new(vs), imm as i64, None);
            }
            Op::MaskCombine { fd, fa, fb, kind } => {
                match kind {
                    0 => b.mand(MReg::new(fd), MReg::new(fa), MReg::new(fb)),
                    1 => b.mor(MReg::new(fd), MReg::new(fa), MReg::new(fb)),
                    2 => b.mxor(MReg::new(fd), MReg::new(fa), MReg::new(fb)),
                    _ => b.mnot(MReg::new(fd), MReg::new(fa)),
                };
            }
            Op::VLoad { vd, word } => {
                b.vload(VReg::new(vd), base, vload_off(word), None);
            }
            Op::VStore { vs, word } => {
                b.vstore(VReg::new(vs), base, vload_off(word), None);
            }
            Op::VGather { vd, vidx } => {
                b.vand(
                    vidx_scratch,
                    VReg::new(vidx),
                    (WINDOW_WORDS - 1) as i64,
                    None,
                );
                b.vgather(VReg::new(vd), base, vidx_scratch, None);
            }
            Op::VScatter { vs, vidx } => {
                b.vand(
                    vidx_scratch,
                    VReg::new(vidx),
                    (WINDOW_WORDS - 1) as i64,
                    None,
                );
                b.vscatter(VReg::new(vs), base, vidx_scratch, None);
            }
            Op::GatherLink { fd, vd, vidx, fsrc } => {
                b.vand(
                    vidx_scratch,
                    VReg::new(vidx),
                    (WINDOW_WORDS - 1) as i64,
                    None,
                );
                b.vgatherlink(
                    MReg::new(fd),
                    VReg::new(vd),
                    base,
                    vidx_scratch,
                    MReg::new(fsrc),
                );
            }
            Op::ScatterCond { fd, vs, vidx, fsrc } => {
                b.vand(
                    vidx_scratch,
                    VReg::new(vidx),
                    (WINDOW_WORDS - 1) as i64,
                    None,
                );
                b.vscattercond(
                    MReg::new(fd),
                    VReg::new(vs),
                    base,
                    vidx_scratch,
                    MReg::new(fsrc),
                );
            }
        }
    }
    b.halt();
    b.build().expect("straight-line program assembles")
}

/// Runs `m` to the end through `run_for` slices of one cycle each, so
/// every cycle crosses a slice boundary.
fn run_one_cycle_slices(m: &mut Machine) -> Result<RunReport, SimError> {
    let mut run = SlicedRun::new(m);
    loop {
        if let Some(report) = m.run_for(&mut run, 1)? {
            return Ok(report);
        }
    }
}

fn initial_memory() -> Vec<u32> {
    (0..WINDOW_WORDS)
        .map(|i| i.wrapping_mul(2654435761))
        .collect()
}

#[test]
fn machine_matches_functional_reference() {
    const WIDTHS: [usize; 4] = [1, 4, 8, 16];
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xD1FF_0001 ^ seed);
        let n = rng.random_range(1..40usize);
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut rng)).collect();
        let width = WIDTHS[rng.random_range(0..WIDTHS.len())];
        let program = assemble(&ops, width);

        // Functional reference.
        let mut ref_mem = glsc::mem::Backing::new();
        ref_mem.write_u32_slice(WINDOW_BASE as u64, &initial_memory());
        let ref_arch = reference::run_functional(&program, &mut ref_mem, width, 1_000_000)
            .expect("straight-line program terminates");

        // Cycle-level machine (1 core, 1 thread).
        let mut machine = Machine::new(MachineConfig::paper(1, 1, width));
        machine
            .mem_mut()
            .backing_mut()
            .write_u32_slice(WINDOW_BASE as u64, &initial_memory());
        machine.load_program(program);
        machine.run().expect("machine run succeeds");

        // Compare the memory window.
        for w in 0..WINDOW_WORDS as u64 {
            let addr = WINDOW_BASE as u64 + 4 * w;
            assert_eq!(
                machine.mem().backing().read_u32(addr),
                ref_mem.read_u32(addr),
                "seed {seed}: memory diverged at word {w}"
            );
        }
        // Compare scalar registers, vector registers, and masks.
        let arch = machine.thread_arch(0);
        for i in 0..32u8 {
            assert_eq!(
                arch.reg(Reg::new(i)),
                ref_arch.reg(Reg::new(i)),
                "seed {seed}: r{i} diverged"
            );
        }
        for i in 0..16u8 {
            assert_eq!(
                arch.vreg(VReg::new(i)),
                ref_arch.vreg(VReg::new(i)),
                "seed {seed}: v{i} diverged"
            );
        }
        for i in 0..8u8 {
            assert_eq!(
                arch.mreg(MReg::new(i)),
                ref_arch.mreg(MReg::new(i)),
                "seed {seed}: f{i} diverged"
            );
        }
    }
}

/// The event-driven fast-forward in `Machine::run` must be an invisible
/// optimization: its `RunReport` (cycles, every per-thread stall counter,
/// memory/LSU/GSU stats) and final memory must be identical to the naive
/// single-stepped loop, on random programs across machine shapes. So must
/// every other way into the stepping loop: one-cycle `run_for` slices and
/// the fleet.
#[test]
fn fast_forward_matches_naive_random_programs() {
    const SHAPES: [(usize, usize); 3] = [(1, 1), (2, 2), (4, 1)];
    const WIDTHS: [usize; 3] = [1, 4, 8];
    let mut image = glsc::mem::Backing::new();
    image.write_u32_slice(WINDOW_BASE as u64, &initial_memory());
    let image = image.freeze();
    let window = |m: &Machine| {
        m.mem()
            .backing()
            .read_u32_vec(WINDOW_BASE as u64, WINDOW_WORDS as usize)
    };
    let mut fleet_jobs = Vec::new();
    let mut expected = Vec::new();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xD1FF_0002 ^ seed);
        let n = rng.random_range(1..40usize);
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut rng)).collect();
        let width = WIDTHS[rng.random_range(0..WIDTHS.len())];
        let (cores, tpc) = SHAPES[rng.random_range(0..SHAPES.len())];
        let program = assemble(&ops, width);

        let build = || {
            let mut m = Machine::new(MachineConfig::paper(cores, tpc, width));
            m.mem_mut()
                .backing_mut()
                .write_u32_slice(WINDOW_BASE as u64, &initial_memory());
            m.load_program(program.clone());
            m
        };
        let mut fast = build();
        let fast_report = fast.run().expect("fast-forward run succeeds");
        let mut naive = build();
        let naive_report = naive.run_naive().expect("naive run succeeds");

        let mut sliced = build();
        let sliced_report = run_one_cycle_slices(&mut sliced).expect("sliced run succeeds");

        assert_eq!(
            fast_report, naive_report,
            "seed {seed} ({cores}x{tpc} w{width}): report diverged"
        );
        assert_eq!(
            fast_report, sliced_report,
            "seed {seed} ({cores}x{tpc} w{width}): one-cycle slices diverged"
        );
        assert_eq!(
            window(&fast),
            window(&naive),
            "seed {seed}: memory diverged"
        );
        assert_eq!(
            window(&fast),
            window(&sliced),
            "seed {seed}: sliced memory diverged"
        );
        fleet_jobs.push(
            FleetJob::new(MachineConfig::paper(cores, tpc, width), program)
                .with_base(image.clone()),
        );
        expected.push((fast_report, window(&fast)));
    }
    let mut finished = 0;
    Fleet::new()
        .with_width(3)
        .with_quantum(7)
        .run_each(fleet_jobs, |seed, m, result| {
            let report = result.expect("fleet run succeeds");
            assert_eq!(report, expected[seed].0, "seed {seed}: fleet diverged");
            assert_eq!(
                window(m),
                expected[seed].1,
                "seed {seed}: fleet memory diverged"
            );
            finished += 1;
        });
    assert_eq!(finished, expected.len());
}

/// Fast-forward vs naive on the real workloads: all seven kernels, both
/// variants, across the four Fig. 6 machine shapes at tiny scale — and
/// one-cycle `run_for` slices and the fleet against both.
#[test]
fn fast_forward_matches_naive_all_kernels() {
    use glsc::kernels::{build_named, Dataset, Variant, KERNEL_NAMES};
    const SHAPES: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 1), (4, 4)];
    let mut fleet_jobs = Vec::new();
    let mut expected = Vec::new();
    for kernel in KERNEL_NAMES {
        for (cores, tpc) in SHAPES {
            for variant in [Variant::Base, Variant::Glsc] {
                let cfg = MachineConfig::paper(cores, tpc, 4);
                let w = build_named(kernel, Dataset::Tiny, variant, &cfg).expect("known kernel");
                let build = || {
                    let mut m = Machine::new(cfg.clone());
                    w.image.apply(m.mem_mut().backing_mut());
                    m.load_program(w.program.clone());
                    m
                };
                let fast = build().run().unwrap_or_else(|e| {
                    panic!("{kernel} {cores}x{tpc} {variant:?}: fast run failed: {e}")
                });
                let naive = build().run_naive().unwrap_or_else(|e| {
                    panic!("{kernel} {cores}x{tpc} {variant:?}: naive run failed: {e}")
                });
                let sliced = run_one_cycle_slices(&mut build()).unwrap_or_else(|e| {
                    panic!("{kernel} {cores}x{tpc} {variant:?}: sliced run failed: {e}")
                });
                assert_eq!(
                    fast, naive,
                    "{kernel} {cores}x{tpc} {variant:?}: fast-forward report diverged from naive"
                );
                assert_eq!(
                    fast, sliced,
                    "{kernel} {cores}x{tpc} {variant:?}: one-cycle slices diverged"
                );
                fleet_jobs.push(FleetJob::new(cfg, w.program).with_base(w.image.publish()));
                expected.push((format!("{kernel} {cores}x{tpc} {variant:?}"), fast));
            }
        }
    }
    let mut finished = 0;
    Fleet::new()
        .with_width(3)
        .with_quantum(97)
        .run_each(fleet_jobs, |i, _, result| {
            let (name, fast) = &expected[i];
            let report = result.unwrap_or_else(|e| panic!("{name}: fleet run failed: {e}"));
            assert_eq!(&report, fast, "{name}: fleet report diverged");
            finished += 1;
        });
    assert_eq!(finished, expected.len());
}
