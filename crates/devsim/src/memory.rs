//! Typed buffers and the host/device memory pair with its transfer
//! ledger.

use paccport_ir::{MemSpace, Scalar};

/// Identity of one memory cell as seen by the race detector's shadow
/// log. Global arrays are shared by every simulated thread, so their
/// cells are identified by (array, index) alone; work-group local
/// arrays are instantiated per group, so the group id is part of the
/// location (lanes of different groups can never touch the same local
/// cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MemLoc {
    pub space: MemSpace,
    pub array: u32,
    /// Owning group for `MemSpace::Local` cells; `-1` for global.
    pub group: i64,
    pub index: i64,
}

impl MemLoc {
    pub fn global(array: u32, index: i64) -> MemLoc {
        MemLoc {
            space: MemSpace::Global,
            array,
            group: -1,
            index,
        }
    }

    pub fn local(array: u32, group: i64, index: i64) -> MemLoc {
        MemLoc {
            space: MemSpace::Local,
            array,
            group,
            index,
        }
    }
}

/// Narrow an f64 to the f32 an `F32` buffer stores, with every NaN
/// stored as the one canonical quiet NaN (`f32::NAN`). Rust leaves the
/// sign and payload of a NaN produced by arithmetic or an `as` cast
/// unspecified, so two execution paths computing the same NaN could
/// otherwise store different bits.
#[inline]
pub fn narrow_f32(val: f64) -> f32 {
    let x = val as f32;
    if x.is_nan() {
        f32::NAN
    } else {
        x
    }
}

/// A typed, 1-D data buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Buffer {
    F32(Vec<f32>),
    F64(Vec<f64>),
    I32(Vec<i32>),
    U32(Vec<u32>),
    Bool(Vec<u8>),
}

impl Buffer {
    /// Zero-initialized buffer of the given element type.
    pub fn zeroed(elem: Scalar, len: usize) -> Buffer {
        match elem {
            Scalar::F32 => Buffer::F32(vec![0.0; len]),
            Scalar::F64 => Buffer::F64(vec![0.0; len]),
            Scalar::I32 => Buffer::I32(vec![0; len]),
            Scalar::U32 => Buffer::U32(vec![0; len]),
            Scalar::Bool => Buffer::Bool(vec![0; len]),
        }
    }

    /// Reset every element to zero, keeping the allocation.
    pub(crate) fn zero(&mut self) {
        match self {
            Buffer::F32(v) => v.fill(0.0),
            Buffer::F64(v) => v.fill(0.0),
            Buffer::I32(v) => v.fill(0),
            Buffer::U32(v) => v.fill(0),
            Buffer::Bool(v) => v.fill(0),
        }
    }

    pub fn elem(&self) -> Scalar {
        match self {
            Buffer::F32(_) => Scalar::F32,
            Buffer::F64(_) => Scalar::F64,
            Buffer::I32(_) => Scalar::I32,
            Buffer::U32(_) => Scalar::U32,
            Buffer::Bool(_) => Scalar::Bool,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Buffer::F32(v) => v.len(),
            Buffer::F64(v) => v.len(),
            Buffer::I32(v) => v.len(),
            Buffer::U32(v) => v.len(),
            Buffer::Bool(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn bytes(&self) -> u64 {
        (self.len() * self.elem().size_bytes()) as u64
    }

    /// Read element `i` as f64 (integers are converted).
    pub fn get(&self, i: usize) -> f64 {
        match self {
            Buffer::F32(v) => v[i] as f64,
            Buffer::F64(v) => v[i],
            Buffer::I32(v) => v[i] as f64,
            Buffer::U32(v) => v[i] as f64,
            Buffer::Bool(v) => v[i] as f64,
        }
    }

    /// Write element `i` from an f64 (narrowed per the element type;
    /// see [`narrow_f32`]).
    pub fn set(&mut self, i: usize, val: f64) {
        match self {
            Buffer::F32(v) => v[i] = narrow_f32(val),
            Buffer::F64(v) => v[i] = val,
            Buffer::I32(v) => v[i] = val as i32,
            Buffer::U32(v) => v[i] = val as u32,
            Buffer::Bool(v) => v[i] = (val != 0.0) as u8,
        }
    }

    /// f32 view (panics on other types) — handy in validators.
    pub fn as_f32(&self) -> &[f32] {
        match self {
            Buffer::F32(v) => v,
            other => panic!("expected F32 buffer, got {:?}", other.elem()),
        }
    }

    /// i32 view (panics on other types).
    pub fn as_i32(&self) -> &[i32] {
        match self {
            Buffer::I32(v) => v,
            other => panic!("expected I32 buffer, got {:?}", other.elem()),
        }
    }

    /// Bit-exact element fingerprints. The conformance harness compares
    /// buffers through this rather than `PartialEq`: float `==` treats
    /// `NaN != NaN` and `-0.0 == 0.0`, both of which would mask (or
    /// fake) real divergence between execution paths.
    pub fn bits(&self) -> Vec<u64> {
        match self {
            Buffer::F32(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
            Buffer::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
            Buffer::I32(v) => v.iter().map(|x| *x as u32 as u64).collect(),
            Buffer::U32(v) => v.iter().map(|x| *x as u64).collect(),
            Buffer::Bool(v) => v.iter().map(|x| *x as u64).collect(),
        }
    }
}

/// Direction-tagged transfer ledger — what `nvprof` would show, and
/// the evidence behind Table VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransferLedger {
    pub h2d_count: u64,
    pub d2h_count: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
}

impl TransferLedger {
    pub fn total_count(&self) -> u64 {
        self.h2d_count + self.d2h_count
    }

    pub fn total_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes
    }

    pub fn record_h2d(&mut self, bytes: u64) {
        self.h2d_count += 1;
        self.h2d_bytes += bytes;
    }

    pub fn record_d2h(&mut self, bytes: u64) {
        self.d2h_count += 1;
        self.d2h_bytes += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip_all_types() {
        for elem in [
            Scalar::F32,
            Scalar::F64,
            Scalar::I32,
            Scalar::U32,
            Scalar::Bool,
        ] {
            let mut b = Buffer::zeroed(elem, 4);
            b.set(2, 1.0);
            assert_eq!(b.get(2), 1.0, "{elem:?}");
            assert_eq!(b.get(0), 0.0);
            assert_eq!(b.len(), 4);
        }
    }

    #[test]
    fn bits_distinguish_what_float_eq_cannot() {
        let a = Buffer::F32(vec![f32::NAN, 0.0]);
        let b = Buffer::F32(vec![f32::NAN, -0.0]);
        // NaN is bitwise-stable under `bits`…
        assert_eq!(a.bits()[0], b.bits()[0]);
        // …and signed zeros are told apart, unlike float `==`.
        assert_ne!(a.bits()[1], b.bits()[1]);
        assert_eq!(Buffer::I32(vec![-1]).bits(), vec![u32::MAX as u64]);
    }

    #[test]
    fn f32_stores_canonicalize_nan() {
        let mut b = Buffer::zeroed(Scalar::F32, 2);
        b.set(0, f64::NAN);
        b.set(1, -f64::NAN);
        assert_eq!(b.bits(), vec![0x7fc0_0000; 2]);
        // Infinities and signed zeros are values, not NaNs: kept.
        assert_eq!(narrow_f32(f64::NEG_INFINITY), f32::NEG_INFINITY);
        assert_eq!(narrow_f32(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn byte_accounting_respects_element_size() {
        assert_eq!(Buffer::zeroed(Scalar::F32, 10).bytes(), 40);
        assert_eq!(Buffer::zeroed(Scalar::F64, 10).bytes(), 80);
        assert_eq!(Buffer::zeroed(Scalar::Bool, 10).bytes(), 10);
    }

    #[test]
    fn ledger_tracks_both_directions() {
        let mut l = TransferLedger::default();
        l.record_h2d(100);
        l.record_h2d(50);
        l.record_d2h(25);
        assert_eq!(l.total_count(), 3);
        assert_eq!(l.total_bytes(), 175);
        assert_eq!(l.h2d_count, 2);
    }

    #[test]
    fn integer_narrowing_on_set() {
        let mut b = Buffer::zeroed(Scalar::I32, 1);
        b.set(0, 3.9);
        assert_eq!(b.as_i32()[0], 3);
    }
}
