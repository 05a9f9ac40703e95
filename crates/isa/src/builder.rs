//! A tiny assembler: emits [`Instr`]s, manages labels, and tracks
//! synchronization regions.

use crate::instr::{AluOp, CmpOp, FenceKind, FpOp, Instr, LaneSel, Operand, VSrc};
use crate::program::{Label, Program, UNBOUND};
use crate::reg::{MReg, Reg, VReg};
use std::error::Error;
use std::fmt;

/// Error returned by [`ProgramBuilder::build`] and [`ProgramBuilder::bind`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A label was used as a branch target but never bound to a position.
    UnboundLabel(Label),
    /// [`ProgramBuilder::bind`] was called twice for the same label.
    RebindLabel(Label),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnboundLabel(l) => write!(f, "label {l} used but never bound"),
            BuildError::RebindLabel(l) => write!(f, "label {l} bound twice"),
        }
    }
}

impl Error for BuildError {}

/// Incrementally builds a [`Program`].
///
/// All emit methods return `&mut Self` for chaining. Labels support forward
/// references: create with [`label`](Self::label), bind with
/// [`bind`](Self::bind); [`here`](Self::here) creates and binds in one step
/// (for backward branches).
///
/// ```
/// use glsc_isa::{ProgramBuilder, Reg};
/// # fn main() -> Result<(), glsc_isa::BuildError> {
/// let mut b = ProgramBuilder::new();
/// let r = Reg::new(4);
/// b.li(r, 10);
/// let top = b.here();
/// b.addi(r, r, -1);
/// b.bgt(r, 0, top);
/// b.halt();
/// let p = b.build()?;
/// assert_eq!(p.target(top), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    sync: Vec<bool>,
    labels: Vec<Option<u32>>,
    in_sync: bool,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instructions emitted so far (the PC of the next emission).
    pub fn pc(&self) -> usize {
        self.instrs.len()
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::RebindLabel`] if the label was already bound.
    pub fn bind(&mut self, label: Label) -> Result<(), BuildError> {
        let slot = &mut self.labels[label.0 as usize];
        if slot.is_some() {
            return Err(BuildError::RebindLabel(label));
        }
        *slot = Some(self.instrs.len() as u32);
        Ok(())
    }

    /// Creates a label bound to the current position (for backward
    /// branches).
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l).expect("fresh label cannot be bound");
        l
    }

    /// Starts a synchronization region: subsequently emitted instructions
    /// are flagged so the simulator attributes their time to
    /// synchronization (paper Fig. 5(a)).
    pub fn sync_on(&mut self) -> &mut Self {
        self.in_sync = true;
        self
    }

    /// Ends a synchronization region.
    pub fn sync_off(&mut self) -> &mut Self {
        self.in_sync = false;
        self
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self.sync.push(self.in_sync);
        self
    }

    /// Finishes the program, resolving all labels.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnboundLabel`] if any label used by an emitted
    /// branch was never bound.
    pub fn build(self) -> Result<Program, BuildError> {
        let mut targets = Vec::with_capacity(self.labels.len());
        for (i, t) in self.labels.iter().enumerate() {
            match t {
                Some(pc) => targets.push(*pc),
                None => {
                    let l = Label(i as u32);
                    if self.uses_label(l) {
                        return Err(BuildError::UnboundLabel(l));
                    }
                    targets.push(UNBOUND);
                }
            }
        }
        Ok(Program {
            instrs: self.instrs,
            sync: self.sync,
            label_targets: targets,
        })
    }

    fn uses_label(&self, l: Label) -> bool {
        self.instrs.iter().any(|i| i.label() == Some(l))
    }

    // ---- scalar arithmetic ----

    /// `rd <- imm`
    pub fn li(&mut self, rd: Reg, imm: i64) -> &mut Self {
        self.emit(Instr::Li { rd, imm })
    }

    /// `rd <- rs` (register move).
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.emit(Instr::Alu {
            op: AluOp::Add,
            rd,
            rs,
            src2: Operand::Imm(0),
        })
    }

    /// Generic scalar ALU emission.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.emit(Instr::Alu {
            op,
            rd,
            rs,
            src2: src2.into(),
        })
    }

    /// `rd <- rs + src2`
    pub fn add(&mut self, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Add, rd, rs, src2)
    }

    /// `rd <- rs + imm` (alias of [`add`](Self::add) with an immediate).
    pub fn addi(&mut self, rd: Reg, rs: Reg, imm: i64) -> &mut Self {
        self.alu(AluOp::Add, rd, rs, imm)
    }

    /// `rd <- rs - src2`
    pub fn sub(&mut self, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Sub, rd, rs, src2)
    }

    /// `rd <- rs * src2`
    pub fn mul(&mut self, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Mul, rd, rs, src2)
    }

    /// `rd <- rs / src2` (unsigned).
    pub fn divu(&mut self, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Div, rd, rs, src2)
    }

    /// `rd <- rs % src2` (unsigned).
    pub fn remu(&mut self, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Rem, rd, rs, src2)
    }

    /// `rd <- rs & src2`
    pub fn and(&mut self, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::And, rd, rs, src2)
    }

    /// `rd <- rs | src2`
    pub fn or(&mut self, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Or, rd, rs, src2)
    }

    /// `rd <- rs ^ src2`
    pub fn xor(&mut self, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Xor, rd, rs, src2)
    }

    /// `rd <- rs << src2`
    pub fn shl(&mut self, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Shl, rd, rs, src2)
    }

    /// `rd <- rs >> src2` (logical).
    pub fn shr(&mut self, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Shr, rd, rs, src2)
    }

    /// `rd <- min(rs, src2)` (unsigned).
    pub fn minu(&mut self, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Min, rd, rs, src2)
    }

    /// `rd <- f32(rs) + f32(rt)`
    pub fn fadd(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Self {
        self.emit(Instr::Fp {
            op: FpOp::Add,
            rd,
            rs,
            rt,
        })
    }

    /// `rd <- f32(rs) - f32(rt)`
    pub fn fsub(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Self {
        self.emit(Instr::Fp {
            op: FpOp::Sub,
            rd,
            rs,
            rt,
        })
    }

    /// `rd <- f32(rs) * f32(rt)`
    pub fn fmul(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Self {
        self.emit(Instr::Fp {
            op: FpOp::Mul,
            rd,
            rs,
            rt,
        })
    }

    /// `rd <- f32(rs) / f32(rt)`
    pub fn fdiv(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Self {
        self.emit(Instr::Fp {
            op: FpOp::Div,
            rd,
            rs,
            rt,
        })
    }

    /// Scalar compare producing 0/1.
    pub fn cmp(&mut self, op: CmpOp, rd: Reg, rs: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.emit(Instr::Cmp {
            op,
            rd,
            rs,
            src2: src2.into(),
        })
    }

    /// Scalar float compare producing 0/1.
    pub fn fcmp(&mut self, op: CmpOp, rd: Reg, rs: Reg, rt: Reg) -> &mut Self {
        self.emit(Instr::FCmp { op, rd, rs, rt })
    }

    /// Signed int -> f32 conversion.
    pub fn cvt_i2f(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.emit(Instr::CvtIntToF32 { rd, rs })
    }

    /// f32 -> truncated signed int conversion.
    pub fn cvt_f2i(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.emit(Instr::CvtF32ToInt { rd, rs })
    }

    // ---- control flow ----

    /// Generic conditional branch.
    pub fn branch(
        &mut self,
        op: CmpOp,
        rs: Reg,
        src2: impl Into<Operand>,
        target: Label,
    ) -> &mut Self {
        self.emit(Instr::Branch {
            op,
            rs,
            src2: src2.into(),
            target,
        })
    }

    /// Branch if equal.
    pub fn beq(&mut self, rs: Reg, src2: impl Into<Operand>, target: Label) -> &mut Self {
        self.branch(CmpOp::Eq, rs, src2, target)
    }

    /// Branch if not equal.
    pub fn bne(&mut self, rs: Reg, src2: impl Into<Operand>, target: Label) -> &mut Self {
        self.branch(CmpOp::Ne, rs, src2, target)
    }

    /// Branch if signed less-than.
    pub fn blt(&mut self, rs: Reg, src2: impl Into<Operand>, target: Label) -> &mut Self {
        self.branch(CmpOp::Lt, rs, src2, target)
    }

    /// Branch if signed less-or-equal.
    pub fn ble(&mut self, rs: Reg, src2: impl Into<Operand>, target: Label) -> &mut Self {
        self.branch(CmpOp::Le, rs, src2, target)
    }

    /// Branch if signed greater-than.
    pub fn bgt(&mut self, rs: Reg, src2: impl Into<Operand>, target: Label) -> &mut Self {
        self.branch(CmpOp::Gt, rs, src2, target)
    }

    /// Branch if signed greater-or-equal.
    pub fn bge(&mut self, rs: Reg, src2: impl Into<Operand>, target: Label) -> &mut Self {
        self.branch(CmpOp::Ge, rs, src2, target)
    }

    /// Unconditional jump.
    pub fn jmp(&mut self, target: Label) -> &mut Self {
        self.emit(Instr::Jump { target })
    }

    /// Branch if mask is all-zero.
    pub fn bmz(&mut self, f: MReg, target: Label) -> &mut Self {
        self.emit(Instr::BranchMaskZero { f, target })
    }

    /// Branch if mask has any set lane.
    pub fn bmnz(&mut self, f: MReg, target: Label) -> &mut Self {
        self.emit(Instr::BranchMaskNotZero { f, target })
    }

    /// Stop the thread.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Instr::Halt)
    }

    /// Global thread barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.emit(Instr::Barrier)
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instr::Nop)
    }

    /// Full memory fence (`fence`).
    pub fn fence(&mut self) -> &mut Self {
        self.emit(Instr::Fence {
            kind: FenceKind::Full,
        })
    }

    /// Acquire fence (`fence.acq`).
    pub fn fence_acq(&mut self) -> &mut Self {
        self.emit(Instr::Fence {
            kind: FenceKind::Acquire,
        })
    }

    /// Release fence (`fence.rel`).
    pub fn fence_rel(&mut self) -> &mut Self {
        self.emit(Instr::Fence {
            kind: FenceKind::Release,
        })
    }

    // ---- scalar memory ----

    /// 32-bit load.
    pub fn ld(&mut self, rd: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instr::Load { rd, base, offset })
    }

    /// 32-bit store.
    pub fn st(&mut self, rs: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instr::Store { rs, base, offset })
    }

    /// Load-linked.
    pub fn ll(&mut self, rd: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instr::LoadLinked { rd, base, offset })
    }

    /// Store-conditional; `rd` receives the success flag.
    pub fn sc(&mut self, rd: Reg, rs: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instr::StoreCond {
            rd,
            rs,
            base,
            offset,
        })
    }

    // ---- vector arithmetic ----

    /// Generic masked vector integer op.
    pub fn valu(
        &mut self,
        op: AluOp,
        vd: VReg,
        vs: VReg,
        src2: impl Into<VSrc>,
        mask: Option<MReg>,
    ) -> &mut Self {
        self.emit(Instr::VAlu {
            op,
            vd,
            vs,
            src2: src2.into(),
            mask,
        })
    }

    /// Vector integer add.
    pub fn vadd(
        &mut self,
        vd: VReg,
        vs: VReg,
        src2: impl Into<VSrc>,
        mask: Option<MReg>,
    ) -> &mut Self {
        self.valu(AluOp::Add, vd, vs, src2, mask)
    }

    /// Vector integer subtract.
    pub fn vsub(
        &mut self,
        vd: VReg,
        vs: VReg,
        src2: impl Into<VSrc>,
        mask: Option<MReg>,
    ) -> &mut Self {
        self.valu(AluOp::Sub, vd, vs, src2, mask)
    }

    /// Vector integer multiply.
    pub fn vmul(
        &mut self,
        vd: VReg,
        vs: VReg,
        src2: impl Into<VSrc>,
        mask: Option<MReg>,
    ) -> &mut Self {
        self.valu(AluOp::Mul, vd, vs, src2, mask)
    }

    /// Vector unsigned remainder (`vmod` of the paper's Fig. 3).
    pub fn vmod(
        &mut self,
        vd: VReg,
        vs: VReg,
        src2: impl Into<VSrc>,
        mask: Option<MReg>,
    ) -> &mut Self {
        self.valu(AluOp::Rem, vd, vs, src2, mask)
    }

    /// Vector logical shift left.
    pub fn vshl(
        &mut self,
        vd: VReg,
        vs: VReg,
        src2: impl Into<VSrc>,
        mask: Option<MReg>,
    ) -> &mut Self {
        self.valu(AluOp::Shl, vd, vs, src2, mask)
    }

    /// Vector logical shift right.
    pub fn vshr(
        &mut self,
        vd: VReg,
        vs: VReg,
        src2: impl Into<VSrc>,
        mask: Option<MReg>,
    ) -> &mut Self {
        self.valu(AluOp::Shr, vd, vs, src2, mask)
    }

    /// Vector bitwise and.
    pub fn vand(
        &mut self,
        vd: VReg,
        vs: VReg,
        src2: impl Into<VSrc>,
        mask: Option<MReg>,
    ) -> &mut Self {
        self.valu(AluOp::And, vd, vs, src2, mask)
    }

    /// Generic masked vector float op.
    pub fn vfp(&mut self, op: FpOp, vd: VReg, vs: VReg, vt: VReg, mask: Option<MReg>) -> &mut Self {
        self.emit(Instr::VFp {
            op,
            vd,
            vs,
            vt,
            mask,
        })
    }

    /// Vector f32 add.
    pub fn vfadd(&mut self, vd: VReg, vs: VReg, vt: VReg, mask: Option<MReg>) -> &mut Self {
        self.vfp(FpOp::Add, vd, vs, vt, mask)
    }

    /// Vector f32 subtract.
    pub fn vfsub(&mut self, vd: VReg, vs: VReg, vt: VReg, mask: Option<MReg>) -> &mut Self {
        self.vfp(FpOp::Sub, vd, vs, vt, mask)
    }

    /// Vector f32 multiply.
    pub fn vfmul(&mut self, vd: VReg, vs: VReg, vt: VReg, mask: Option<MReg>) -> &mut Self {
        self.vfp(FpOp::Mul, vd, vs, vt, mask)
    }

    /// Vector integer compare into a mask.
    pub fn vcmp(
        &mut self,
        op: CmpOp,
        fd: MReg,
        vs: VReg,
        src2: impl Into<VSrc>,
        mask: Option<MReg>,
    ) -> &mut Self {
        self.emit(Instr::VCmp {
            op,
            fd,
            vs,
            src2: src2.into(),
            mask,
        })
    }

    /// Vector f32 compare into a mask.
    pub fn vfcmp(
        &mut self,
        op: CmpOp,
        fd: MReg,
        vs: VReg,
        vt: VReg,
        mask: Option<MReg>,
    ) -> &mut Self {
        self.emit(Instr::VFCmp {
            op,
            fd,
            vs,
            vt,
            mask,
        })
    }

    /// Broadcast scalar to vector.
    pub fn vsplat(&mut self, vd: VReg, rs: Reg) -> &mut Self {
        self.emit(Instr::VSplat { vd, rs })
    }

    /// Lane indices 0..width.
    pub fn viota(&mut self, vd: VReg) -> &mut Self {
        self.emit(Instr::VIota { vd })
    }

    /// Extract one lane to a scalar.
    pub fn vextract(&mut self, rd: Reg, vs: VReg, lane: impl Into<LaneSel>) -> &mut Self {
        self.emit(Instr::VExtract {
            rd,
            vs,
            lane: lane.into(),
        })
    }

    /// Insert a scalar into one lane.
    pub fn vinsert(&mut self, vd: VReg, rs: Reg, lane: impl Into<LaneSel>) -> &mut Self {
        self.emit(Instr::VInsert {
            vd,
            rs,
            lane: lane.into(),
        })
    }

    // ---- masks ----

    /// Set all lanes of a mask (the paper's `ALL_ONES`).
    pub fn mall(&mut self, f: MReg) -> &mut Self {
        self.emit(Instr::MSetAll { f })
    }

    /// Clear a mask.
    pub fn mclear(&mut self, f: MReg) -> &mut Self {
        self.emit(Instr::MClear { f })
    }

    /// Mask complement.
    pub fn mnot(&mut self, fd: MReg, fs: MReg) -> &mut Self {
        self.emit(Instr::MNot { fd, fs })
    }

    /// Mask and.
    pub fn mand(&mut self, fd: MReg, fa: MReg, fb: MReg) -> &mut Self {
        self.emit(Instr::MAnd { fd, fa, fb })
    }

    /// Mask or.
    pub fn mor(&mut self, fd: MReg, fa: MReg, fb: MReg) -> &mut Self {
        self.emit(Instr::MOr { fd, fa, fb })
    }

    /// Mask xor (the paper's `FtoDo ^= Ftmp` in Fig. 3).
    pub fn mxor(&mut self, fd: MReg, fa: MReg, fb: MReg) -> &mut Self {
        self.emit(Instr::MXor { fd, fa, fb })
    }

    /// Mask move.
    pub fn mmov(&mut self, fd: MReg, fs: MReg) -> &mut Self {
        self.emit(Instr::MMov { fd, fs })
    }

    /// Mask population count into a scalar.
    pub fn mpop(&mut self, rd: Reg, f: MReg) -> &mut Self {
        self.emit(Instr::MPopcount { rd, f })
    }

    /// Scalar -> mask.
    pub fn r2m(&mut self, f: MReg, rs: Reg) -> &mut Self {
        self.emit(Instr::MFromReg { f, rs })
    }

    /// Mask -> scalar.
    pub fn m2r(&mut self, rd: Reg, f: MReg) -> &mut Self {
        self.emit(Instr::MToReg { rd, f })
    }

    // ---- vector memory ----

    /// Unit-stride vector load.
    pub fn vload(&mut self, vd: VReg, base: Reg, offset: i64, mask: Option<MReg>) -> &mut Self {
        self.emit(Instr::VLoad {
            vd,
            base,
            offset,
            mask,
        })
    }

    /// Unit-stride vector store.
    pub fn vstore(&mut self, vs: VReg, base: Reg, offset: i64, mask: Option<MReg>) -> &mut Self {
        self.emit(Instr::VStore {
            vs,
            base,
            offset,
            mask,
        })
    }

    /// Indexed gather.
    pub fn vgather(&mut self, vd: VReg, base: Reg, vidx: VReg, mask: Option<MReg>) -> &mut Self {
        self.emit(Instr::VGather {
            vd,
            base,
            vidx,
            mask,
        })
    }

    /// Indexed scatter.
    pub fn vscatter(&mut self, vs: VReg, base: Reg, vidx: VReg, mask: Option<MReg>) -> &mut Self {
        self.emit(Instr::VScatter {
            vs,
            base,
            vidx,
            mask,
        })
    }

    /// `vgatherlink Fdst, Vdst, base, Vindx, Fsrc` (paper §3.1).
    pub fn vgatherlink(
        &mut self,
        fd: MReg,
        vd: VReg,
        base: Reg,
        vidx: VReg,
        fsrc: MReg,
    ) -> &mut Self {
        self.emit(Instr::VGatherLink {
            fd,
            vd,
            base,
            vidx,
            fsrc,
        })
    }

    /// `vscattercond Fdst, Vsrc, base, Vindx, Fsrc` (paper §3.1).
    pub fn vscattercond(
        &mut self,
        fd: MReg,
        vs: VReg,
        base: Reg,
        vidx: VReg,
        fsrc: MReg,
    ) -> &mut Self {
        self.emit(Instr::VScatterCond {
            fd,
            vs,
            base,
            vidx,
            fsrc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = ProgramBuilder::new();
        let r = Reg::new(1);
        let fwd = b.label();
        b.li(r, 1);
        let back = b.here();
        b.beq(r, 0, fwd);
        b.jmp(back);
        b.bind(fwd).unwrap();
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.target(back), 1);
        assert_eq!(p.target(fwd), 3);
    }

    #[test]
    fn unbound_used_label_is_error() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jmp(l);
        assert_eq!(b.build().unwrap_err(), BuildError::UnboundLabel(Label(0)));
    }

    #[test]
    fn unbound_unused_label_is_fine() {
        let mut b = ProgramBuilder::new();
        let _l = b.label();
        b.halt();
        assert!(b.build().is_ok());
    }

    #[test]
    fn rebinding_is_error() {
        let mut b = ProgramBuilder::new();
        let l = b.here();
        assert_eq!(b.bind(l).unwrap_err(), BuildError::RebindLabel(l));
    }

    #[test]
    fn chaining_emits_in_order() {
        let mut b = ProgramBuilder::new();
        let r = Reg::new(2);
        b.li(r, 1).addi(r, r, 2).halt();
        let p = b.build().unwrap();
        assert_eq!(p.len(), 3);
        assert!(matches!(p.fetch(0), Some(Instr::Li { imm: 1, .. })));
        assert!(matches!(p.fetch(2), Some(Instr::Halt)));
    }

    #[test]
    fn mv_is_add_zero() {
        let mut b = ProgramBuilder::new();
        b.mv(Reg::new(3), Reg::new(4));
        let p = b.build().unwrap();
        assert!(matches!(
            p.fetch(0),
            Some(Instr::Alu {
                op: AluOp::Add,
                src2: Operand::Imm(0),
                ..
            })
        ));
    }
}
