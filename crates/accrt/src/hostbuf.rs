//! Typed host-side array storage bound to program arrays.

use accparse::ast::CType;
use gpsim::Value;
use uhacc_core::types::machine_ty;

/// A host array: element type plus raw little-endian storage, the host
/// half of an OpenACC data clause.
#[derive(Debug, Clone, PartialEq)]
pub struct HostBuffer {
    ty: CType,
    len: usize,
    data: Vec<u8>,
}

impl HostBuffer {
    /// A zero-filled buffer of `len` elements of `ty`.
    pub fn new(ty: CType, len: usize) -> Self {
        HostBuffer {
            ty,
            len,
            data: vec![0; len * ty.size()],
        }
    }

    /// A buffer of `vals`, each element laid down by `enc` — the bytes
    /// [`HostBuffer::set`] would write, without a [`Value`] per element.
    fn from_le<T: Copy, const N: usize>(ty: CType, vals: &[T], enc: impl Fn(T) -> [u8; N]) -> Self {
        debug_assert_eq!(N, ty.size());
        let mut data = Vec::with_capacity(vals.len() * N);
        for &v in vals {
            data.extend_from_slice(&enc(v));
        }
        HostBuffer {
            ty,
            len: vals.len(),
            data,
        }
    }

    /// Every element decoded by `dec` from its little-endian bytes.
    fn decode<T, const N: usize>(&self, dec: impl Fn([u8; N]) -> T) -> Vec<T> {
        debug_assert_eq!(N, self.ty.size());
        self.data
            .chunks_exact(N)
            .map(|c| dec(c.try_into().expect("chunks_exact yields N bytes")))
            .collect()
    }

    /// Build from `i32` data.
    pub fn from_i32(vals: &[i32]) -> Self {
        Self::from_le(CType::Int, vals, i32::to_le_bytes)
    }

    /// Build from `i64` data.
    pub fn from_i64(vals: &[i64]) -> Self {
        Self::from_le(CType::Long, vals, i64::to_le_bytes)
    }

    /// Build from `f32` data. A signalling NaN is stored quiet, as
    /// [`Value::convert`] to `F32` (which `set` applies) stores it.
    pub fn from_f32(vals: &[f32]) -> Self {
        Self::from_le(CType::Float, vals, |v| {
            gpsim::types::quiet_f32(v).to_le_bytes()
        })
    }

    /// Build from `f64` data.
    pub fn from_f64(vals: &[f64]) -> Self {
        Self::from_le(CType::Double, vals, f64::to_le_bytes)
    }

    /// Element type.
    pub fn ty(&self) -> CType {
        self.ty
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read element `i`.
    pub fn get(&self, i: usize) -> Value {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        Value::from_bytes(machine_ty(self.ty), &self.data[i * self.ty.size()..])
    }

    /// Write element `i` (converted to the buffer's type).
    pub fn set(&mut self, i: usize, v: Value) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let v = v.convert(machine_ty(self.ty));
        let (bytes, n) = v.to_bytes();
        self.data[i * self.ty.size()..i * self.ty.size() + n].copy_from_slice(&bytes[..n]);
    }

    /// Raw bytes (for device transfers).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw bytes (for device transfers).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// All elements widened to `f64` (verification helper).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match self.ty {
            CType::Int => self.decode(|b| i32::from_le_bytes(b) as f64),
            CType::Long => self.decode(|b| i64::from_le_bytes(b) as f64),
            CType::Float => self.decode(|b| f32::from_le_bytes(b) as f64),
            CType::Double => self.decode(f64::from_le_bytes),
        }
    }

    /// All elements as `i64`, floats saturating like [`Value::as_i64`]
    /// (verification helper).
    pub fn to_i64_vec(&self) -> Vec<i64> {
        match self.ty {
            CType::Int => self.decode(|b| i32::from_le_bytes(b) as i64),
            CType::Long => self.decode(i64::from_le_bytes),
            CType::Float => self.decode(|b| f32::from_le_bytes(b) as i64),
            CType::Double => self.decode(|b| f64::from_le_bytes(b) as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let b = HostBuffer::from_i32(&[1, -2, 3]);
        assert_eq!(b.get(1), Value::I32(-2));
        assert_eq!(b.len(), 3);
        let b = HostBuffer::from_f64(&[1.5, -2.5]);
        assert_eq!(b.get(0), Value::F64(1.5));
        let b = HostBuffer::from_f32(&[0.25]);
        assert_eq!(b.get(0), Value::F32(0.25));
        let b = HostBuffer::from_i64(&[1 << 40]);
        assert_eq!(b.get(0), Value::I64(1 << 40));
    }

    /// The bulk constructors and readers are the per-element `set`/`get`
    /// path, byte for byte, on the values where a shortcut could differ:
    /// signed zeros, NaNs (a signalling `f32` one is stored quiet),
    /// extremes, and integers beyond `f32`/`f64`/`i32` precision.
    #[test]
    fn bulk_paths_match_per_element_paths_on_edge_values() {
        fn check<T: Copy>(
            ty: CType,
            vals: &[T],
            bulk: fn(&[T]) -> HostBuffer,
            value: fn(T) -> Value,
        ) {
            let mut slow = HostBuffer::new(ty, vals.len());
            for (i, &v) in vals.iter().enumerate() {
                slow.set(i, value(v));
            }
            let fast = bulk(vals);
            assert_eq!(fast, slow, "{ty:?}");
            let f64s: Vec<u64> = (0..slow.len())
                .map(|i| slow.get(i).as_f64().to_bits())
                .collect();
            let got: Vec<u64> = fast.to_f64_vec().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, f64s, "{ty:?} to_f64_vec");
            let i64s: Vec<i64> = (0..slow.len()).map(|i| slow.get(i).as_i64()).collect();
            assert_eq!(fast.to_i64_vec(), i64s, "{ty:?} to_i64_vec");
        }
        let i32s = [0, 1, -1, i32::MIN, i32::MAX, 1 << 24 | 1];
        check(CType::Int, &i32s, HostBuffer::from_i32, Value::I32);
        let i64s = [0, -1, 1 << 40, i64::MIN, i64::MAX, (1 << 53) + 1];
        check(CType::Long, &i64s, HostBuffer::from_i64, Value::I64);
        let snan = f32::from_bits(0x7f80_0001);
        let f32s = [
            0.0,
            -0.0,
            1.5,
            f32::NAN,
            -f32::NAN,
            snan,
            f32::from_bits(0xffb0_0000),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0,
            3e9,
            -1e19,
        ];
        check(CType::Float, &f32s, HostBuffer::from_f32, Value::F32);
        assert_eq!(
            HostBuffer::from_f32(&[snan]).bytes(),
            0x7fc0_0001u32.to_le_bytes(),
            "a signalling NaN is stored quiet"
        );
        let f64s = [
            0.0,
            -0.0,
            -2.5,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::INFINITY,
            f64::MIN_POSITIVE / 2.0,
            1e300,
            -1e19,
        ];
        check(CType::Double, &f64s, HostBuffer::from_f64, Value::F64);
    }

    #[test]
    fn set_converts() {
        let mut b = HostBuffer::new(CType::Float, 2);
        b.set(0, Value::F64(2.5));
        assert_eq!(b.get(0), Value::F32(2.5));
        b.set(1, Value::I32(3));
        assert_eq!(b.get(1), Value::F32(3.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_panics() {
        let b = HostBuffer::new(CType::Int, 1);
        let _ = b.get(1);
    }

    #[test]
    fn helpers() {
        let b = HostBuffer::from_i32(&[4, 5]);
        assert_eq!(b.to_i64_vec(), vec![4, 5]);
        assert_eq!(b.to_f64_vec(), vec![4.0, 5.0]);
        assert_eq!(b.bytes().len(), 8);
        assert!(!b.is_empty());
        assert!(HostBuffer::new(CType::Int, 0).is_empty());
    }
}
