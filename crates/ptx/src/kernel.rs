//! Kernels and modules of PTX-like code.

use crate::count::CategoryCounts;
use crate::instr::Item;

/// A compiled kernel: a linear instruction stream with labels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PtxKernel {
    pub name: String,
    /// Formal parameters (scalars and array base pointers), by name.
    pub params: Vec<String>,
    pub body: Vec<Item>,
}

impl PtxKernel {
    pub fn new(name: impl Into<String>) -> Self {
        PtxKernel {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Number of instructions (labels excluded).
    pub fn len(&self) -> usize {
        self.body.iter().filter(|i| i.as_inst().is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Static per-category instruction counts — the paper's core
    /// analysis artifact.
    pub fn counts(&self) -> CategoryCounts {
        let mut c = CategoryCounts::default();
        for item in &self.body {
            if let Some(inst) = item.as_inst() {
                c.bump(inst.op.category());
            }
        }
        c
    }
}

/// A module: all kernels produced from one program by one compiler.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PtxModule {
    /// Which toolchain produced this module (e.g. "CAPS 3.4.1 (CUDA)").
    pub producer: String,
    pub kernels: Vec<PtxKernel>,
}

impl PtxModule {
    pub fn kernel(&self, name: &str) -> Option<&PtxKernel> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Summed static counts over all kernels.
    pub fn counts(&self) -> CategoryCounts {
        self.kernels
            .iter()
            .map(|k| k.counts())
            .fold(CategoryCounts::default(), |a, b| a + b)
    }

    /// Total instruction count.
    pub fn len(&self) -> usize {
        self.kernels.iter().map(|k| k.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instruction, LabelId, Operand};
    use crate::isa::{Category, Opcode, PtxType};

    fn inst(op: Opcode) -> Item {
        Item::Inst(Instruction::new(op, PtxType::F32, None, vec![]))
    }

    #[test]
    fn labels_are_free() {
        let mut k = PtxKernel::new("k");
        k.body.push(Item::Label(LabelId(0)));
        k.body.push(inst(Opcode::Add));
        k.body.push(Item::Inst(Instruction::new(
            Opcode::Bra,
            PtxType::Pred,
            None,
            vec![Operand::Label(LabelId(0))],
        )));
        assert_eq!(k.len(), 2);
        let c = k.counts();
        assert_eq!(c.get(Category::Arithmetic), 1);
        assert_eq!(c.get(Category::FlowControl), 1);
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn module_sums_kernels() {
        let mut a = PtxKernel::new("a");
        a.body.push(inst(Opcode::LdGlobal));
        let mut b = PtxKernel::new("b");
        b.body.push(inst(Opcode::StGlobal));
        b.body.push(inst(Opcode::Mul));
        let m = PtxModule {
            producer: "test".into(),
            kernels: vec![a, b],
        };
        assert_eq!(m.len(), 3);
        assert_eq!(m.counts().get(Category::GlobalMemory), 2);
        assert!(m.kernel("a").is_some());
        assert!(m.kernel("z").is_none());
    }
}
