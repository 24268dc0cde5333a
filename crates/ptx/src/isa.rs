//! Opcodes, operand types and the Table-V instruction categories.

use std::fmt;

/// The instruction categories of the paper's Table V.
///
/// "Data movement encompasses both data transfers to shared and
/// global memory" in the paper's prose, but its Table V separates
/// register-level movement (`cvt`, `mov`, `ld.param`) from global- and
/// shared-memory instructions; we keep the table's six columns and add
/// a seventh bucket for synchronization/control (`bar.sync`, `ret`),
/// which the paper's plots omit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    Arithmetic,
    FlowControl,
    LogicalShift,
    DataMovement,
    GlobalMemory,
    SharedMemory,
    Sync,
}

/// All categories, in Table-V column order.
pub const CATEGORIES: [Category; 7] = [
    Category::Arithmetic,
    Category::FlowControl,
    Category::LogicalShift,
    Category::DataMovement,
    Category::GlobalMemory,
    Category::SharedMemory,
    Category::Sync,
];

impl Category {
    /// Column header used by the report tables.
    pub fn label(self) -> &'static str {
        match self {
            Category::Arithmetic => "Arithmetic",
            Category::FlowControl => "Flow Control",
            Category::LogicalShift => "Logical Shift",
            Category::DataMovement => "Data Mov.",
            Category::GlobalMemory => "Global Memory",
            Category::SharedMemory => "Shared Memory",
            Category::Sync => "Sync",
        }
    }

    pub fn index(self) -> usize {
        CATEGORIES.iter().position(|c| *c == self).unwrap()
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Operand / instruction types, following PTX suffix spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtxType {
    F32,
    F64,
    S32,
    U32,
    /// 64-bit address arithmetic.
    U64,
    /// Predicate registers.
    Pred,
}

impl PtxType {
    pub fn suffix(self) -> &'static str {
        match self {
            PtxType::F32 => "f32",
            PtxType::F64 => "f64",
            PtxType::S32 => "s32",
            PtxType::U32 => "u32",
            PtxType::U64 => "u64",
            PtxType::Pred => "pred",
        }
    }

    /// Register-name prefix PTX uses for this class.
    pub fn reg_prefix(self) -> &'static str {
        match self {
            PtxType::F32 => "%f",
            PtxType::F64 => "%fd",
            PtxType::S32 | PtxType::U32 => "%r",
            PtxType::U64 => "%rd",
            PtxType::Pred => "%p",
        }
    }
}

/// The opcode vocabulary of Table V (plus `sqrt`/`ex2` needed by
/// Hydro and Back Propagation, and the sync/control pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    // Arithmetic
    Add,
    Sub,
    Mul,
    Div,
    Max,
    Min,
    Fma,
    Mad,
    Rcp,
    Abs,
    Neg,
    Rem,
    Sqrt,
    /// `ex2.approx` — exponential (used by BP's sigmoid).
    Ex2,
    // Flow control
    Setp,
    Selp,
    Bra,
    // Logical / shift
    And,
    Or,
    Not,
    Shl,
    Shr,
    // Data movement (register level)
    Cvt,
    Mov,
    LdParam,
    // Global memory
    CvtaToGlobal,
    LdGlobal,
    StGlobal,
    /// Atomic read-modify-write (`atom.global.add` etc.) — emitted by
    /// the OpenACC 2.0 atomics directive.
    AtomAdd,
    AtomMax,
    AtomMin,
    // Shared memory
    LdShared,
    StShared,
    // Sync / control
    BarSync,
    Ret,
}

impl Opcode {
    pub fn category(self) -> Category {
        use Opcode::*;
        match self {
            Add | Sub | Mul | Div | Max | Min | Fma | Mad | Rcp | Abs | Neg | Rem | Sqrt | Ex2 => {
                Category::Arithmetic
            }
            Setp | Selp | Bra => Category::FlowControl,
            And | Or | Not | Shl | Shr => Category::LogicalShift,
            Cvt | Mov | LdParam => Category::DataMovement,
            CvtaToGlobal | LdGlobal | StGlobal | AtomAdd | AtomMax | AtomMin => {
                Category::GlobalMemory
            }
            LdShared | StShared => Category::SharedMemory,
            BarSync | Ret => Category::Sync,
        }
    }

    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Max => "max",
            Min => "min",
            Fma => "fma",
            Mad => "mad",
            Rcp => "rcp",
            Abs => "abs",
            Neg => "neg",
            Rem => "rem",
            Sqrt => "sqrt",
            Ex2 => "ex2.approx",
            Setp => "setp",
            Selp => "selp",
            Bra => "bra",
            And => "and",
            Or => "or",
            Not => "not",
            Shl => "shl",
            Shr => "shr",
            Cvt => "cvt",
            Mov => "mov",
            LdParam => "ld.param",
            CvtaToGlobal => "cvta.to.global",
            LdGlobal => "ld.global",
            StGlobal => "st.global",
            AtomAdd => "atom.global.add",
            AtomMax => "atom.global.max",
            AtomMin => "atom.global.min",
            LdShared => "ld.shared",
            StShared => "st.shared",
            BarSync => "bar.sync",
            Ret => "ret",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_category_assignment() {
        // Spot checks straight out of Table V.
        assert_eq!(Opcode::Add.category(), Category::Arithmetic);
        assert_eq!(Opcode::Fma.category(), Category::Arithmetic);
        assert_eq!(Opcode::Rcp.category(), Category::Arithmetic);
        assert_eq!(Opcode::Setp.category(), Category::FlowControl);
        assert_eq!(Opcode::Selp.category(), Category::FlowControl);
        assert_eq!(Opcode::Bra.category(), Category::FlowControl);
        assert_eq!(Opcode::Or.category(), Category::LogicalShift);
        assert_eq!(Opcode::Shl.category(), Category::LogicalShift);
        assert_eq!(Opcode::Cvt.category(), Category::DataMovement);
        assert_eq!(Opcode::Mov.category(), Category::DataMovement);
        assert_eq!(Opcode::LdParam.category(), Category::DataMovement);
        assert_eq!(Opcode::CvtaToGlobal.category(), Category::GlobalMemory);
        assert_eq!(Opcode::LdGlobal.category(), Category::GlobalMemory);
        assert_eq!(Opcode::StGlobal.category(), Category::GlobalMemory);
        assert_eq!(Opcode::LdShared.category(), Category::SharedMemory);
        assert_eq!(Opcode::StShared.category(), Category::SharedMemory);
        assert_eq!(Opcode::BarSync.category(), Category::Sync);
    }

    #[test]
    fn category_index_is_stable() {
        for (i, c) in CATEGORIES.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn mnemonics_render_ptx_names() {
        assert_eq!(Opcode::CvtaToGlobal.mnemonic(), "cvta.to.global");
        assert_eq!(Opcode::LdShared.mnemonic(), "ld.shared");
        assert_eq!(Opcode::BarSync.mnemonic(), "bar.sync");
    }

    #[test]
    fn reg_prefixes_follow_ptx_convention() {
        assert_eq!(PtxType::F32.reg_prefix(), "%f");
        assert_eq!(PtxType::S32.reg_prefix(), "%r");
        assert_eq!(PtxType::U64.reg_prefix(), "%rd");
        assert_eq!(PtxType::Pred.reg_prefix(), "%p");
    }
}
