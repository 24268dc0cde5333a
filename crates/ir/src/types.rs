//! Core identifier and declaration types shared by the whole IR.

use std::fmt;

/// Scalar element / value types understood by the IR.
///
/// The benchmarks in the paper use single-precision floats and 32-bit
/// integers; `F64` exists for reference-precision checks and `Bool`
/// for mask arrays (BFS frontier masks are `bool` in Rodinia).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scalar {
    F32,
    F64,
    I32,
    U32,
    Bool,
}

impl Scalar {
    /// Size of one element in bytes on the simulated devices.
    pub fn size_bytes(self) -> usize {
        match self {
            Scalar::F32 | Scalar::I32 | Scalar::U32 => 4,
            Scalar::F64 => 8,
            Scalar::Bool => 1,
        }
    }

    /// Whether the type is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, Scalar::F32 | Scalar::F64)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scalar::F32 => "float",
            Scalar::F64 => "double",
            Scalar::I32 => "int",
            Scalar::U32 => "unsigned",
            Scalar::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// Index of an array declared in a [`crate::Program`]'s array table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// Index of a scalar parameter declared in a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub u32);

/// Index of a scalar variable: loop induction variables (host or
/// device) and kernel-local scalars share one numbering per program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Which memory an array access refers to.
///
/// `Local` is OpenCL `__local` / CUDA `__shared__` memory; only
/// work-group ("staged") kernel bodies may touch it. The PTX-analysis
/// part of the paper hinges on this distinction: OpenACC tiling never
/// produced `ld.shared`/`st.shared` instructions, while the
/// hand-written OpenCL and the `reduction` directive did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemSpace {
    Global,
    Local,
}

/// Host/device data-movement intent of a program array, in the sense
/// of the OpenACC `data` clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intent {
    /// `copyin` — host → device at region entry.
    In,
    /// `copyout` — device → host at region exit.
    Out,
    /// `copy` — both directions.
    InOut,
    /// `create` — device-only scratch, never transferred.
    Scratch,
}

impl Intent {
    pub fn copies_in(self) -> bool {
        matches!(self, Intent::In | Intent::InOut)
    }
    pub fn copies_out(self) -> bool {
        matches!(self, Intent::Out | Intent::InOut)
    }
}

/// Declaration of a scalar program parameter (e.g. the matrix order
/// `n`). Parameters are bound to concrete values at run/compile time.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    pub name: String,
    pub ty: Scalar,
}

/// Declaration of a (device-resident) program array.
///
/// `len` is an expression over parameters only, evaluated when the
/// program is instantiated (e.g. `n*n` for a square matrix).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    pub name: String,
    pub elem: Scalar,
    pub len: crate::expr::Expr,
    pub intent: Intent,
}

/// Declaration of a work-group local array in a staged kernel body.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalArrayDecl {
    pub name: String,
    pub elem: Scalar,
    /// Compile-time constant length (local memory must be statically
    /// sized, as in CUDA `__shared__` declarations).
    pub len: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes_match_device_abi() {
        assert_eq!(Scalar::F32.size_bytes(), 4);
        assert_eq!(Scalar::F64.size_bytes(), 8);
        assert_eq!(Scalar::I32.size_bytes(), 4);
        assert_eq!(Scalar::U32.size_bytes(), 4);
        assert_eq!(Scalar::Bool.size_bytes(), 1);
    }

    #[test]
    fn intent_transfer_directions() {
        assert!(Intent::In.copies_in() && !Intent::In.copies_out());
        assert!(!Intent::Out.copies_in() && Intent::Out.copies_out());
        assert!(Intent::InOut.copies_in() && Intent::InOut.copies_out());
        assert!(!Intent::Scratch.copies_in() && !Intent::Scratch.copies_out());
    }

    #[test]
    fn float_classification() {
        assert!(Scalar::F32.is_float());
        assert!(Scalar::F64.is_float());
        assert!(!Scalar::I32.is_float());
        assert!(!Scalar::Bool.is_float());
    }

    #[test]
    fn display_is_c_like() {
        assert_eq!(Scalar::F32.to_string(), "float");
        assert_eq!(Scalar::U32.to_string(), "unsigned");
    }
}
