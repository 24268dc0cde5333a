//! Instructions over virtual registers.

use crate::isa::{Opcode, PtxType};

/// A virtual register. The [`PtxType`] lives on the instruction; the
/// formatter derives the PTX register class from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

/// A branch-target label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(pub u32);

/// Hardware special registers (`mov.u32 %r1, %tid.x;`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    TidX,
    TidY,
    CtaIdX,
    CtaIdY,
    NTidX,
    NTidY,
    NCtaIdX,
    NCtaIdY,
}

impl SpecialReg {
    pub fn name(self) -> &'static str {
        match self {
            SpecialReg::TidX => "%tid.x",
            SpecialReg::TidY => "%tid.y",
            SpecialReg::CtaIdX => "%ctaid.x",
            SpecialReg::CtaIdY => "%ctaid.y",
            SpecialReg::NTidX => "%ntid.x",
            SpecialReg::NTidY => "%ntid.y",
            SpecialReg::NCtaIdX => "%nctaid.x",
            SpecialReg::NCtaIdY => "%nctaid.y",
        }
    }
}

/// Instruction operands.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    Reg(Reg),
    ImmF(f64),
    ImmI(i64),
    /// Kernel parameter / array-base symbol (for `ld.param`,
    /// `cvta.to.global`).
    Sym(String),
    /// Branch target.
    Label(LabelId),
    /// Special-register source (`%tid.x`, `%ctaid.y`, …).
    Sreg(SpecialReg),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

/// One PTX-like instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    pub op: Opcode,
    pub ty: PtxType,
    /// Destination register (absent for stores, branches, barriers).
    pub dst: Option<Reg>,
    pub srcs: Vec<Operand>,
    /// Guard predicate: `@%p bra …`.
    pub pred: Option<Reg>,
}

impl Instruction {
    pub fn new(op: Opcode, ty: PtxType, dst: Option<Reg>, srcs: Vec<Operand>) -> Self {
        Instruction {
            op,
            ty,
            dst,
            srcs,
            pred: None,
        }
    }

    pub fn with_pred(mut self, p: Reg) -> Self {
        self.pred = Some(p);
        self
    }
}

/// A body element: either a label or an instruction. Labels carry no
/// cost and are skipped by the counters.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Label(LabelId),
    Inst(Instruction),
}

impl Item {
    pub fn as_inst(&self) -> Option<&Instruction> {
        match self {
            Item::Inst(i) => Some(i),
            Item::Label(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicated_branch_construction() {
        let i = Instruction::new(
            Opcode::Bra,
            PtxType::Pred,
            None,
            vec![Operand::Label(LabelId(3))],
        )
        .with_pred(Reg(7));
        assert_eq!(i.pred, Some(Reg(7)));
        assert!(i.dst.is_none());
    }

    #[test]
    fn item_inst_accessor() {
        let i = Item::Inst(Instruction::new(Opcode::Ret, PtxType::U32, None, vec![]));
        assert!(i.as_inst().is_some());
        assert!(Item::Label(LabelId(0)).as_inst().is_none());
    }
}
