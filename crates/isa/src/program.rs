//! Assembled programs.

use crate::instr::Instr;
use std::fmt;

/// A branch target created by [`ProgramBuilder::label`] and resolved when
/// the program is built.
///
/// [`ProgramBuilder::label`]: crate::ProgramBuilder::label
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(pub(crate) u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// The target [`ProgramBuilder::build`] records for a label that was never
/// bound, which it allows only when no instruction names the label.
///
/// [`ProgramBuilder::build`]: crate::ProgramBuilder::build
pub(crate) const UNBOUND: u32 = u32::MAX;

/// An assembled, immutable program: a sequence of instructions plus
/// per-instruction metadata and resolved label targets.
///
/// In the simulator every hardware thread runs a `Program` (usually the same
/// SPMD program, with the thread id supplied in a register by convention).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    pub(crate) instrs: Vec<Instr>,
    /// `sync[i]` is true when instruction `i` was emitted inside a
    /// synchronization region (`ProgramBuilder::sync_on`); the simulator
    /// uses it to attribute execution time to synchronization (Fig. 5(a)).
    pub(crate) sync: Vec<bool>,
    pub(crate) label_targets: Vec<u32>,
}

impl Program {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at `pc`, or `None` past the end.
    pub fn fetch(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// Whether the instruction at `pc` is inside a synchronization region.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn is_sync(&self, pc: usize) -> bool {
        self.sync[pc]
    }

    /// Resolves a label to its instruction index.
    ///
    /// # Panics
    ///
    /// Panics if the label does not belong to this program.
    pub fn target(&self, label: Label) -> usize {
        self.label_targets[label.0 as usize] as usize
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instr> {
        self.instrs.iter()
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instr;
    type IntoIter = std::slice::Iter<'a, Instr>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

/// Binary serialization for durable snapshots. Instructions travel as
/// their assembly text — `parse_instr` is the exact inverse of `Display`
/// (the round-trip property pinned by `tests/roundtrip.rs`), so the text
/// form is both canonical and stable across unrelated enum-layout churn.
/// The `sync` flags and resolved label table are carried alongside; they
/// are program-build artifacts a disassembly listing alone cannot
/// recover.
impl glsc_wire::Wire for Program {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        let Self {
            instrs,
            sync,
            label_targets,
        } = self;
        let text: Vec<String> = instrs.iter().map(|i| i.to_string()).collect();
        text.encode(w);
        sync.encode(w);
        label_targets.encode(w);
    }

    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        let at = r.pos();
        let text = Vec::<String>::decode(r)?;
        let mut instrs = Vec::with_capacity(text.len());
        for line in &text {
            instrs.push(
                crate::parse_instr(line).map_err(|_| glsc_wire::WireError::Invalid {
                    at,
                    what: "instruction text",
                })?,
            );
        }
        let sync = Vec::<bool>::decode(r)?;
        let label_targets = Vec::<u32>::decode(r)?;
        if sync.len() != instrs.len() {
            return Err(glsc_wire::WireError::Invalid {
                at,
                what: "sync flag count",
            });
        }
        // Every label an instruction names must be in the table and bound
        // (a target of `len` runs off the end, which halts); a label that
        // nothing names may also hold the unbound sentinel.
        let bound = |t: u32| t as usize <= instrs.len();
        let named_ok = |l: Label| label_targets.get(l.0 as usize).is_some_and(|&t| bound(t));
        if label_targets.iter().any(|&t| !bound(t) && t != UNBOUND)
            || !instrs.iter().filter_map(Instr::label).all(named_ok)
        {
            return Err(glsc_wire::WireError::Invalid {
                at,
                what: "label target",
            });
        }
        Ok(Self {
            instrs,
            sync,
            label_targets,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{ProgramBuilder, Reg};

    #[test]
    fn fetch_and_targets() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.li(Reg::new(1), 7);
        b.bind(l).unwrap();
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.target(l), 1);
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(2).is_none());
        assert_eq!(p.iter().count(), 2);
    }

    #[test]
    fn wire_round_trip_preserves_everything() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.li(Reg::new(1), 7);
        b.sync_on();
        b.bind(l).unwrap();
        b.addi(Reg::new(1), Reg::new(1), -3);
        b.sync_off();
        b.halt();
        let p = b.build().unwrap();
        let bytes = glsc_wire::to_bytes(&p);
        let q: crate::Program = glsc_wire::from_bytes(&bytes).unwrap();
        // Program has no PartialEq (label identity is builder-scoped);
        // the Debug form covers instrs, sync flags and label targets.
        assert_eq!(format!("{p:?}"), format!("{q:?}"));
        // Corrupt instruction text decodes to a typed error, not garbage.
        let mut bad = bytes.clone();
        let needle = b"li";
        let pos = bytes
            .windows(needle.len())
            .position(|v| v == needle)
            .unwrap();
        bad[pos] = b'z';
        assert!(glsc_wire::from_bytes::<crate::Program>(&bad).is_err());
    }

    #[test]
    fn wire_decode_checks_named_labels_only() {
        use crate::{Instr, Label, Program};
        // A label nothing names may stay unbound and still round-trip.
        let mut b = ProgramBuilder::new();
        let _unused = b.label();
        b.halt();
        let p = b.build().unwrap();
        let q: Program = glsc_wire::from_bytes(&glsc_wire::to_bytes(&p)).unwrap();
        assert_eq!(p, q);
        // A named label outside the table, or named but unbound, is a
        // typed error rather than a panic when the program is stepped.
        for label_targets in [vec![], vec![super::UNBOUND]] {
            let bad = Program {
                instrs: vec![Instr::Jump { target: Label(0) }, Instr::Halt],
                sync: vec![false, false],
                label_targets,
            };
            let err = glsc_wire::from_bytes::<Program>(&glsc_wire::to_bytes(&bad)).unwrap_err();
            assert!(
                matches!(
                    err,
                    glsc_wire::WireError::Invalid {
                        what: "label target",
                        ..
                    }
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn sync_flags_recorded() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::new(1), 0);
        b.sync_on();
        b.li(Reg::new(2), 0);
        b.sync_off();
        b.halt();
        let p = b.build().unwrap();
        assert!(!p.is_sync(0));
        assert!(p.is_sync(1));
        assert!(!p.is_sync(2));
    }
}
