//! Per-block column encodings with zone-map statistics — the compressed
//! relation plane.
//!
//! A [`CompressedColumn`] stores a column's value buffer as a sequence of
//! independently encoded blocks on the canonical [`GRAM_BLOCK_ROWS`]-row
//! grid (the same grid the numerics crate's blocked reductions use, so
//! decoded windows line up with every downstream consumer). Encodings are chosen per block by byte cost:
//!
//! - **floats** — constant blocks, delta/bitpack when every value is
//!   exactly integer-representable (payroll-style rounded figures), raw
//!   `to_bits` otherwise;
//! - **ints** — constant, delta/bitpack, or raw;
//! - **dictionary codes** — run-length runs or bit-packed codes, with the
//!   string pool itself byte-compressed ([`SealedDict`], see
//!   [`crate::lz`]) and materialized lazily.
//!
//! Every encoding is **lossless on `f64::to_bits`** over the full slot
//! buffer (null slots included), so decoding reproduces the raw column
//! bit-for-bit and anything computed from decoded buffers — OLS
//! statistics, predicate masks, rankings — is identical to the
//! uncompressed path by construction.
//!
//! Each block also carries a zone map (min/max over valid slots, null and
//! finite counts) so predicate masks can classify whole blocks as
//! all-match / no-match and skip decoding; see
//! [`CompressedColumn::cmp_mask`]. Skip/scan counters feed the benchmark's
//! `zone_map_block_skip_frac`.

use crate::column::StrDict;
use crate::error::{RelationError, Result};
use crate::lz;
use crate::predicate::CmpOp;
use crate::value::DataType;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

/// Rows per encoded block. Mirrors `charles_numerics::ols::GRAM_BLOCK_ROWS`
/// (the relation crate is dependency-free by design; `charles-core`
/// compile-time-asserts the two constants agree) so decoded block windows
/// land exactly on the statistics kernels' fold grid.
pub const GRAM_BLOCK_ROWS: usize = 128;

/// Number of bits needed to store `max` (0 for 0).
fn bit_width(max: u64) -> u32 {
    64 - max.leading_zeros()
}

/// Pack `values` at `width` bits each (LSB-first within and across words).
/// `width` must be in `1..=63`.
fn pack_bits(values: &[u64], width: u32) -> Vec<u64> {
    let width = width as usize;
    let total_bits = values.len() * width;
    let mut out = vec![0u64; total_bits.div_ceil(64)];
    for (i, &v) in values.iter().enumerate() {
        let bit = i * width;
        let word = bit / 64;
        let off = bit % 64;
        out[word] |= v << off;
        if off + width > 64 {
            out[word + 1] |= v >> (64 - off);
        }
    }
    out
}

/// Read value `i` back out of a [`pack_bits`] buffer.
fn unpack_bits(packed: &[u64], width: u32, i: usize) -> u64 {
    let width = width as usize;
    let bit = i * width;
    let word = bit / 64;
    let off = bit % 64;
    let mut v = packed[word] >> off;
    if off + width > 64 {
        v |= packed[word + 1] << (64 - off);
    }
    v & ((1u64 << width) - 1)
}

/// One encoded block of `i64` slot values (also the backing representation
/// for integer-representable float blocks).
#[derive(Debug, Clone)]
enum IntBlock {
    /// Every slot holds the same value.
    Const { value: i64, len: usize },
    /// Slots are `base + unpack(i)`, deltas bit-packed at `width` bits.
    Delta {
        base: i64,
        width: u32,
        len: usize,
        packed: Vec<u64>,
    },
    /// Verbatim values (incompressible block).
    Raw { values: Vec<i64> },
}

impl IntBlock {
    fn encode(values: &[i64]) -> IntBlock {
        let base = values.iter().copied().min().unwrap_or(0);
        // Wrapping subtraction is exact here: base ≤ v, so the true
        // difference fits in u64 and equals the wrapped bit pattern.
        let max_delta = values
            .iter()
            .map(|&v| v.wrapping_sub(base) as u64)
            .max()
            .unwrap_or(0);
        if max_delta == 0 {
            return IntBlock::Const {
                value: base,
                len: values.len(),
            };
        }
        let width = bit_width(max_delta);
        if width >= 64 {
            return IntBlock::Raw {
                values: values.to_vec(),
            };
        }
        let deltas: Vec<u64> = values
            .iter()
            .map(|&v| v.wrapping_sub(base) as u64)
            .collect();
        let packed = pack_bits(&deltas, width);
        if packed.len() >= values.len() {
            return IntBlock::Raw {
                values: values.to_vec(),
            };
        }
        IntBlock::Delta {
            base,
            width,
            len: values.len(),
            packed,
        }
    }

    fn len(&self) -> usize {
        match self {
            IntBlock::Const { len, .. } | IntBlock::Delta { len, .. } => *len,
            IntBlock::Raw { values } => values.len(),
        }
    }

    fn get(&self, i: usize) -> i64 {
        match self {
            IntBlock::Const { value, .. } => *value,
            IntBlock::Delta {
                base,
                width,
                packed,
                ..
            } => base.wrapping_add(unpack_bits(packed, *width, i) as i64),
            IntBlock::Raw { values } => values[i],
        }
    }

    fn decode_into(&self, out: &mut Vec<i64>) {
        match self {
            IntBlock::Const { value, len } => out.extend(std::iter::repeat_n(*value, *len)),
            IntBlock::Delta {
                base,
                width,
                len,
                packed,
            } => {
                out.extend(
                    (0..*len).map(|i| base.wrapping_add(unpack_bits(packed, *width, i) as i64)),
                );
            }
            IntBlock::Raw { values } => out.extend_from_slice(values),
        }
    }

    fn payload_bytes(&self) -> usize {
        match self {
            IntBlock::Const { .. } => 16,
            IntBlock::Delta { packed, .. } => 24 + packed.len() * 8,
            IntBlock::Raw { values } => 8 + values.len() * 8,
        }
    }
}

/// One encoded block of `f64` slot bit patterns.
#[derive(Debug, Clone)]
enum FloatBlock {
    /// Every slot carries the same bit pattern.
    Const { bits: u64, len: usize },
    /// Every slot is exactly integer-representable; stored as an
    /// [`IntBlock`] of the integer values.
    Ints(IntBlock),
    /// Verbatim bit patterns.
    Raw { bits: Vec<u64> },
}

/// Whether `v as i64 as f64` reproduces `v` bit-for-bit (rejects NaN, ±∞,
/// `-0.0`, fractional and out-of-range values).
fn integer_representable(v: f64) -> bool {
    ((v as i64) as f64).to_bits() == v.to_bits()
}

impl FloatBlock {
    fn encode(values: &[f64]) -> FloatBlock {
        let first = values.first().map_or(0, |v| v.to_bits());
        if values.iter().all(|v| v.to_bits() == first) {
            return FloatBlock::Const {
                bits: first,
                len: values.len(),
            };
        }
        if values.iter().copied().all(integer_representable) {
            let ints: Vec<i64> = values.iter().map(|&v| v as i64).collect();
            let block = IntBlock::encode(&ints);
            if block.payload_bytes() < 8 + values.len() * 8 {
                return FloatBlock::Ints(block);
            }
        }
        FloatBlock::Raw {
            bits: values.iter().map(|v| v.to_bits()).collect(),
        }
    }

    fn get(&self, i: usize) -> f64 {
        match self {
            FloatBlock::Const { bits, .. } => f64::from_bits(*bits),
            FloatBlock::Ints(block) => block.get(i) as f64,
            FloatBlock::Raw { bits } => f64::from_bits(bits[i]),
        }
    }

    fn decode_into(&self, out: &mut Vec<f64>) {
        match self {
            FloatBlock::Const { bits, len } => {
                out.extend(std::iter::repeat_n(f64::from_bits(*bits), *len));
            }
            FloatBlock::Ints(block) => {
                let start = out.len();
                out.extend((0..block.len()).map(|i| block.get(i) as f64));
                debug_assert_eq!(out.len() - start, block.len());
            }
            FloatBlock::Raw { bits } => out.extend(bits.iter().map(|&b| f64::from_bits(b))),
        }
    }

    fn len(&self) -> usize {
        match self {
            FloatBlock::Const { len, .. } => *len,
            FloatBlock::Ints(block) => block.len(),
            FloatBlock::Raw { bits } => bits.len(),
        }
    }

    fn payload_bytes(&self) -> usize {
        match self {
            FloatBlock::Const { .. } => 16,
            FloatBlock::Ints(block) => block.payload_bytes(),
            FloatBlock::Raw { bits } => 8 + bits.len() * 8,
        }
    }
}

/// One encoded block of dictionary codes.
#[derive(Debug, Clone)]
enum CodeBlock {
    /// `(code, run length)` runs in row order.
    Rle { runs: Vec<(u32, u32)> },
    /// Codes bit-packed at `width` bits.
    Packed {
        width: u32,
        len: usize,
        packed: Vec<u64>,
    },
}

impl CodeBlock {
    fn encode(codes: &[u32]) -> CodeBlock {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &c in codes {
            match runs.last_mut() {
                Some((code, n)) if *code == c => *n += 1,
                _ => runs.push((c, 1)),
            }
        }
        let max = codes.iter().copied().max().unwrap_or(0);
        let width = bit_width(u64::from(max)).max(1);
        let rle_bytes = 8 + runs.len() * 8;
        let packed_bytes = 16 + (codes.len() * width as usize).div_ceil(64) * 8;
        if rle_bytes <= packed_bytes {
            return CodeBlock::Rle { runs };
        }
        let widened: Vec<u64> = codes.iter().map(|&c| u64::from(c)).collect();
        CodeBlock::Packed {
            width,
            len: codes.len(),
            packed: pack_bits(&widened, width),
        }
    }

    fn len(&self) -> usize {
        match self {
            CodeBlock::Rle { runs } => runs.iter().map(|&(_, n)| n as usize).sum(),
            CodeBlock::Packed { len, .. } => *len,
        }
    }

    fn get(&self, i: usize) -> u32 {
        match self {
            CodeBlock::Rle { runs } => {
                let mut at = i;
                for &(code, n) in runs {
                    if at < n as usize {
                        return code;
                    }
                    at -= n as usize;
                }
                0
            }
            CodeBlock::Packed { width, packed, .. } => unpack_bits(packed, *width, i) as u32,
        }
    }

    fn decode_into(&self, out: &mut Vec<u32>) {
        match self {
            CodeBlock::Rle { runs } => {
                for &(code, n) in runs {
                    out.extend(std::iter::repeat_n(code, n as usize));
                }
            }
            CodeBlock::Packed { width, len, packed } => {
                out.extend((0..*len).map(|i| unpack_bits(packed, *width, i) as u32))
            }
        }
    }

    fn payload_bytes(&self) -> usize {
        match self {
            CodeBlock::Rle { runs } => 8 + runs.len() * 8,
            CodeBlock::Packed { packed, .. } => 16 + packed.len() * 8,
        }
    }
}

/// Per-block statistics over **valid** slots: min/max in `f64` total
/// order, null and finite counts. `min`/`max` are meaningless when
/// `valid == 0`.
#[derive(Debug, Clone, Copy)]
pub struct FloatZone {
    /// Smallest valid slot value under [`f64::total_cmp`].
    pub min: f64,
    /// Largest valid slot value under [`f64::total_cmp`].
    pub max: f64,
    /// Valid (non-null) slots in the block.
    pub valid: u32,
    /// Valid slots whose value is finite.
    pub finite: u32,
    /// Total slots in the block.
    pub len: u32,
}

impl FloatZone {
    fn compute(values: &[f64], validity: Option<&[bool]>) -> FloatZone {
        let mut zone = FloatZone {
            min: f64::NAN,
            max: f64::NAN,
            valid: 0,
            finite: 0,
            len: values.len() as u32,
        };
        for (i, &v) in values.iter().enumerate() {
            if validity.is_some_and(|m| !m[i]) {
                continue;
            }
            if zone.valid == 0 {
                zone.min = v;
                zone.max = v;
            } else {
                if v.total_cmp(&zone.min) == Ordering::Less {
                    zone.min = v;
                }
                if v.total_cmp(&zone.max) == Ordering::Greater {
                    zone.max = v;
                }
            }
            zone.valid += 1;
            zone.finite += u32::from(v.is_finite());
        }
        zone
    }
}

/// Per-block statistics for integer blocks: exact `i64` bounds over valid
/// slots (meaningless when `valid == 0`).
#[derive(Debug, Clone, Copy)]
pub struct IntZone {
    /// Smallest valid slot value.
    pub min: i64,
    /// Largest valid slot value.
    pub max: i64,
    /// Valid (non-null) slots in the block.
    pub valid: u32,
    /// Total slots in the block.
    pub len: u32,
}

impl IntZone {
    fn compute(values: &[i64], validity: Option<&[bool]>) -> IntZone {
        let mut zone = IntZone {
            min: 0,
            max: 0,
            valid: 0,
            len: values.len() as u32,
        };
        for (i, &v) in values.iter().enumerate() {
            if validity.is_some_and(|m| !m[i]) {
                continue;
            }
            if zone.valid == 0 {
                zone.min = v;
                zone.max = v;
            } else {
                zone.min = zone.min.min(v);
                zone.max = zone.max.max(v);
            }
            zone.valid += 1;
        }
        zone
    }

    /// The zone seen through the `as f64` cast the numeric predicate path
    /// applies. The cast is monotone, so the casted bounds are genuine
    /// total-order bounds of the casted value set (and never `-0.0`/NaN).
    fn as_float_zone(&self) -> FloatZone {
        FloatZone {
            min: self.min as f64,
            max: self.max as f64,
            valid: self.valid,
            finite: self.valid,
            len: self.len,
        }
    }
}

/// Code-block statistics: code bounds over valid slots.
#[derive(Debug, Clone, Copy)]
struct CodeZone {
    min: u32,
    max: u32,
    valid: u32,
}

impl CodeZone {
    fn compute(codes: &[u32], validity: Option<&[bool]>) -> CodeZone {
        let mut zone = CodeZone {
            min: 0,
            max: 0,
            valid: 0,
        };
        for (i, &c) in codes.iter().enumerate() {
            if validity.is_some_and(|m| !m[i]) {
                continue;
            }
            if zone.valid == 0 {
                zone.min = c;
                zone.max = c;
            } else {
                zone.min = zone.min.min(c);
                zone.max = zone.max.max(c);
            }
            zone.valid += 1;
        }
        zone
    }
}

/// A byte-compressed, lazily materialized string pool for sealed columns.
///
/// The pool is serialized as `[len: u32 LE][bytes]` per entry in code
/// order, byte-compressed with [`crate::lz`] when that actually shrinks
/// it, and re-interned on first access — codes are preserved because
/// [`StrDict::intern`] assigns sequential codes and the entries are
/// distinct by construction.
#[derive(Debug)]
pub struct SealedDict {
    payload: Vec<u8>,
    /// Uncompressed payload length (`payload` is stored raw when
    /// compression would not shrink it).
    raw_len: usize,
    compressed: bool,
    entries: usize,
    cache: OnceLock<Arc<StrDict>>,
}

impl SealedDict {
    fn seal(dict: &StrDict) -> SealedDict {
        let mut stream = Vec::new();
        for code in 0..dict.len() as u32 {
            let s = dict.resolve(code);
            stream.extend_from_slice(&(s.len() as u32).to_le_bytes());
            stream.extend_from_slice(s.as_bytes());
        }
        let raw_len = stream.len();
        let packed = lz::compress(&stream);
        let (payload, compressed) = if packed.len() < raw_len {
            (packed, true)
        } else {
            (stream, false)
        };
        SealedDict {
            payload,
            raw_len,
            compressed,
            entries: dict.len(),
            cache: OnceLock::new(),
        }
    }

    /// Number of distinct strings (available without materializing).
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Materialize the pool (cached after the first call).
    pub fn dict(&self) -> Result<&Arc<StrDict>> {
        if let Some(dict) = self.cache.get() {
            return Ok(dict);
        }
        let raw = if self.compressed {
            lz::decompress(&self.payload, self.raw_len)?
        } else {
            self.payload.clone()
        };
        let mut dict = StrDict::new();
        let mut pos = 0usize;
        for _ in 0..self.entries {
            let header = raw
                .get(pos..pos + 4)
                .ok_or_else(|| RelationError::Eval("truncated sealed dictionary".to_string()))?;
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
            pos += 4;
            let bytes = raw
                .get(pos..pos + len)
                .ok_or_else(|| RelationError::Eval("truncated sealed dictionary".to_string()))?;
            pos += len;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| RelationError::Eval("sealed dictionary is not UTF-8".to_string()))?;
            dict.intern(s);
        }
        Ok(self.cache.get_or_init(|| Arc::new(dict)))
    }

    fn payload_bytes(&self) -> usize {
        self.payload.len() + 32
    }
}

/// Block classification against a predicate, decided from the zone map
/// alone.
enum BlockClass {
    /// Every valid slot matches (null slots are cleared by the caller's
    /// validity pass).
    AllTrue,
    /// No valid slot matches.
    AllFalse,
    /// Undecidable from the zone: decode and test exactly.
    Decode,
}

/// Classify a comparison block. `lit` is the literal in the exact
/// semantics of the raw columnar path: `Eq`/`Ne` compare with IEEE
/// `==`/`!=`, ordering operators with [`f64::total_cmp`]. The zone's
/// min/max are total-order bounds of the valid slots, so:
///
/// - ordering predicates are threshold sets (up- or down-closed in the
///   total order) — both endpoints matching ⇒ all match, neither ⇒ none;
/// - IEEE equality's match set is a total-order *interval* once `±0.0` is
///   widened to `[-0.0, +0.0]` (a NaN literal matches nothing), so
///   disjointness/containment against `[min, max]` decides the block.
fn classify_cmp(zone: &FloatZone, op: CmpOp, lit: f64) -> BlockClass {
    if zone.valid == 0 {
        return BlockClass::AllFalse;
    }
    match op {
        CmpOp::Eq | CmpOp::Ne => {
            if lit.is_nan() {
                // `v == NaN` is false and `v != NaN` is true for every v.
                return if op == CmpOp::Eq {
                    BlockClass::AllFalse
                } else {
                    BlockClass::AllTrue
                };
            }
            let (lo, hi) = if lit == 0.0 { (-0.0, 0.0) } else { (lit, lit) };
            let disjoint = zone.max.total_cmp(&lo) == Ordering::Less
                || zone.min.total_cmp(&hi) == Ordering::Greater;
            let contained = zone.min.total_cmp(&lo) != Ordering::Less
                && zone.max.total_cmp(&hi) != Ordering::Greater;
            match (op, disjoint, contained) {
                (CmpOp::Eq, true, _) => BlockClass::AllFalse,
                (CmpOp::Eq, _, true) => BlockClass::AllTrue,
                (CmpOp::Ne, true, _) => BlockClass::AllTrue,
                (CmpOp::Ne, _, true) => BlockClass::AllFalse,
                _ => BlockClass::Decode,
            }
        }
        _ => {
            let at_min = op.test(zone.min.total_cmp(&lit));
            let at_max = op.test(zone.max.total_cmp(&lit));
            match (at_min, at_max) {
                (true, true) => BlockClass::AllTrue,
                (false, false) => BlockClass::AllFalse,
                _ => BlockClass::Decode,
            }
        }
    }
}

/// Classify a half-open range block (`lo ≤ v < hi` under total order —
/// the `Between` semantics of the raw path). The match set is a
/// total-order interval, so endpoint membership and disjointness decide.
fn classify_between(zone: &FloatZone, lo: f64, hi: f64) -> BlockClass {
    if zone.valid == 0 {
        return BlockClass::AllFalse;
    }
    let inside = |v: f64| v.total_cmp(&lo) != Ordering::Less && v.total_cmp(&hi) == Ordering::Less;
    if inside(zone.min) && inside(zone.max) {
        return BlockClass::AllTrue;
    }
    if zone.max.total_cmp(&lo) == Ordering::Less || zone.min.total_cmp(&hi) != Ordering::Less {
        return BlockClass::AllFalse;
    }
    BlockClass::Decode
}

/// The typed block plane of a compressed column.
#[derive(Debug)]
enum Plane {
    /// A compressed `Float64` column.
    Floats {
        blocks: Vec<FloatBlock>,
        zones: Vec<FloatZone>,
        decoded: OnceLock<Arc<Vec<f64>>>,
    },
    /// A compressed `Int64` column.
    Ints {
        blocks: Vec<IntBlock>,
        zones: Vec<IntZone>,
        decoded: OnceLock<Arc<Vec<i64>>>,
    },
    /// A compressed `Utf8` column (codes plus sealed dictionary).
    Codes {
        dict: SealedDict,
        blocks: Vec<CodeBlock>,
        zones: Vec<CodeZone>,
        decoded: OnceLock<Arc<Vec<u32>>>,
    },
}

/// A column's value buffer as per-block encodings plus zone maps. Owned
/// behind an `Arc` by [`crate::Column::Compressed`]; the validity mask
/// stays raw on the column itself.
#[derive(Debug)]
pub struct CompressedColumn {
    len: usize,
    plane: Plane,
    /// Blocks answered from the zone map alone (monotone).
    skipped: AtomicU64,
    /// Blocks that had to be decoded for an exact test (monotone).
    scanned: AtomicU64,
}

/// Split a buffer into the canonical block grid.
fn block_slices<T>(values: &[T]) -> impl Iterator<Item = (usize, &[T])> {
    values
        .chunks(GRAM_BLOCK_ROWS)
        .enumerate()
        .map(|(b, chunk)| (b * GRAM_BLOCK_ROWS, chunk))
}

fn validity_window(validity: Option<&[bool]>, start: usize, len: usize) -> Option<&[bool]> {
    validity.map(|m| &m[start..start + len])
}

impl CompressedColumn {
    /// Encode a `Float64` buffer (slot values verbatim, null slots
    /// included).
    pub fn from_floats(values: &[f64], validity: Option<&[bool]>) -> CompressedColumn {
        let mut blocks = Vec::with_capacity(values.len().div_ceil(GRAM_BLOCK_ROWS));
        let mut zones = Vec::with_capacity(blocks.capacity());
        for (start, chunk) in block_slices(values) {
            blocks.push(FloatBlock::encode(chunk));
            zones.push(FloatZone::compute(
                chunk,
                validity_window(validity, start, chunk.len()),
            ));
        }
        CompressedColumn {
            len: values.len(),
            plane: Plane::Floats {
                blocks,
                zones,
                decoded: OnceLock::new(),
            },
            skipped: AtomicU64::new(0),
            scanned: AtomicU64::new(0),
        }
    }

    /// Encode an `Int64` buffer.
    pub fn from_ints(values: &[i64], validity: Option<&[bool]>) -> CompressedColumn {
        let mut blocks = Vec::with_capacity(values.len().div_ceil(GRAM_BLOCK_ROWS));
        let mut zones = Vec::with_capacity(blocks.capacity());
        for (start, chunk) in block_slices(values) {
            blocks.push(IntBlock::encode(chunk));
            zones.push(IntZone::compute(
                chunk,
                validity_window(validity, start, chunk.len()),
            ));
        }
        CompressedColumn {
            len: values.len(),
            plane: Plane::Ints {
                blocks,
                zones,
                decoded: OnceLock::new(),
            },
            skipped: AtomicU64::new(0),
            scanned: AtomicU64::new(0),
        }
    }

    /// Encode a dictionary-coded `Utf8` buffer, sealing the pool.
    pub fn from_codes(
        dict: &StrDict,
        codes: &[u32],
        validity: Option<&[bool]>,
    ) -> CompressedColumn {
        let mut blocks = Vec::with_capacity(codes.len().div_ceil(GRAM_BLOCK_ROWS));
        let mut zones = Vec::with_capacity(blocks.capacity());
        for (start, chunk) in block_slices(codes) {
            blocks.push(CodeBlock::encode(chunk));
            zones.push(CodeZone::compute(
                chunk,
                validity_window(validity, start, chunk.len()),
            ));
        }
        CompressedColumn {
            len: codes.len(),
            plane: Plane::Codes {
                dict: SealedDict::seal(dict),
                blocks,
                zones,
                decoded: OnceLock::new(),
            },
            skipped: AtomicU64::new(0),
            scanned: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The logical data type the blocks decode to.
    pub fn dtype(&self) -> DataType {
        match &self.plane {
            Plane::Floats { .. } => DataType::Float64,
            Plane::Ints { .. } => DataType::Int64,
            Plane::Codes { .. } => DataType::Utf8,
        }
    }

    /// Whether the plane decodes to a numeric type.
    pub fn is_numeric(&self) -> bool {
        !matches!(self.plane, Plane::Codes { .. })
    }

    /// Raw `f64` slot value (Floats plane only; panics on other planes
    /// like an out-of-variant field access would).
    pub(crate) fn float_slot(&self, i: usize) -> f64 {
        match &self.plane {
            Plane::Floats {
                blocks, decoded, ..
            } => match decoded.get() {
                Some(buf) => buf[i],
                None => blocks[i / GRAM_BLOCK_ROWS].get(i % GRAM_BLOCK_ROWS),
            },
            // lint:allow(no-panic-in-request-path: callers dispatch on dtype() first; a wrong-plane access is a dispatch bug, not an input condition)
            _ => unreachable!("float_slot on a non-float plane"),
        }
    }

    /// Raw `i64` slot value (Ints plane only).
    pub(crate) fn int_slot(&self, i: usize) -> i64 {
        match &self.plane {
            Plane::Ints {
                blocks, decoded, ..
            } => match decoded.get() {
                Some(buf) => buf[i],
                None => blocks[i / GRAM_BLOCK_ROWS].get(i % GRAM_BLOCK_ROWS),
            },
            // lint:allow(no-panic-in-request-path: callers dispatch on dtype() first; a wrong-plane access is a dispatch bug, not an input condition)
            _ => unreachable!("int_slot on a non-int plane"),
        }
    }

    /// Raw code slot value (Codes plane only).
    pub(crate) fn code_slot(&self, i: usize) -> u32 {
        match &self.plane {
            Plane::Codes {
                blocks, decoded, ..
            } => match decoded.get() {
                Some(buf) => buf[i],
                None => blocks[i / GRAM_BLOCK_ROWS].get(i % GRAM_BLOCK_ROWS),
            },
            // lint:allow(no-panic-in-request-path: callers dispatch on dtype() first; a wrong-plane access is a dispatch bug, not an input condition)
            _ => unreachable!("code_slot on a non-code plane"),
        }
    }

    /// The fully decoded `f64` buffer (Floats plane), decoded once and
    /// shared — the buffer [`crate::Column::numeric_view`] re-wraps, so
    /// every downstream reduction folds the identical allocation.
    pub fn decode_floats(&self) -> Option<&Arc<Vec<f64>>> {
        match &self.plane {
            Plane::Floats {
                blocks, decoded, ..
            } => Some(decoded.get_or_init(|| {
                let mut out = Vec::with_capacity(self.len);
                for block in blocks {
                    block.decode_into(&mut out);
                }
                Arc::new(out)
            })),
            _ => None,
        }
    }

    /// The fully decoded `i64` buffer (Ints plane), decoded once.
    pub fn decode_ints(&self) -> Option<&Arc<Vec<i64>>> {
        match &self.plane {
            Plane::Ints {
                blocks, decoded, ..
            } => Some(decoded.get_or_init(|| {
                let mut out = Vec::with_capacity(self.len);
                for block in blocks {
                    block.decode_into(&mut out);
                }
                Arc::new(out)
            })),
            _ => None,
        }
    }

    /// The fully decoded code buffer (Codes plane), decoded once.
    pub fn decode_codes(&self) -> Option<&Arc<Vec<u32>>> {
        match &self.plane {
            Plane::Codes {
                blocks, decoded, ..
            } => Some(decoded.get_or_init(|| {
                let mut out = Vec::with_capacity(self.len);
                for block in blocks {
                    block.decode_into(&mut out);
                }
                Arc::new(out)
            })),
            _ => None,
        }
    }

    /// The materialized dictionary (Codes plane).
    pub fn dict(&self) -> Option<Result<&Arc<StrDict>>> {
        match &self.plane {
            Plane::Codes { dict, .. } => Some(dict.dict()),
            _ => None,
        }
    }

    /// Distinct strings in the sealed pool without materializing it.
    pub fn dict_entries(&self) -> Option<usize> {
        match &self.plane {
            Plane::Codes { dict, .. } => Some(dict.entries()),
            _ => None,
        }
    }

    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// `(blocks answered from zone maps, blocks decoded for exact tests)`
    /// since construction.
    pub fn zone_stats(&self) -> (u64, u64) {
        (
            self.skipped.load(AtomicOrdering::Relaxed),
            self.scanned.load(AtomicOrdering::Relaxed),
        )
    }

    /// Walk blocks for a numeric predicate: `classify` decides each block
    /// from its zone; undecided blocks are decoded and tested per slot
    /// with `exact` (which receives the decoded slot value).
    fn numeric_blocks_mask(
        &self,
        classify: impl Fn(&FloatZone) -> BlockClass,
        exact: impl Fn(f64) -> bool,
    ) -> Option<Vec<bool>> {
        let mut mask = Vec::with_capacity(self.len);
        match &self.plane {
            Plane::Floats { blocks, zones, .. } => {
                let mut scratch: Vec<f64> = Vec::with_capacity(GRAM_BLOCK_ROWS);
                for (block, zone) in blocks.iter().zip(zones) {
                    match classify(zone) {
                        BlockClass::AllTrue => {
                            self.bump(&self.skipped);
                            mask.extend(std::iter::repeat_n(true, block.len()));
                        }
                        BlockClass::AllFalse => {
                            self.bump(&self.skipped);
                            mask.extend(std::iter::repeat_n(false, block.len()));
                        }
                        BlockClass::Decode => {
                            self.bump(&self.scanned);
                            scratch.clear();
                            block.decode_into(&mut scratch);
                            mask.extend(scratch.iter().map(|&v| exact(v)));
                        }
                    }
                }
                Some(mask)
            }
            Plane::Ints { blocks, zones, .. } => {
                let mut scratch: Vec<i64> = Vec::with_capacity(GRAM_BLOCK_ROWS);
                for (block, zone) in blocks.iter().zip(zones) {
                    match classify(&zone.as_float_zone()) {
                        BlockClass::AllTrue => {
                            self.bump(&self.skipped);
                            mask.extend(std::iter::repeat_n(true, block.len()));
                        }
                        BlockClass::AllFalse => {
                            self.bump(&self.skipped);
                            mask.extend(std::iter::repeat_n(false, block.len()));
                        }
                        BlockClass::Decode => {
                            self.bump(&self.scanned);
                            scratch.clear();
                            block.decode_into(&mut scratch);
                            mask.extend(scratch.iter().map(|&v| exact(v as f64)));
                        }
                    }
                }
                Some(mask)
            }
            Plane::Codes { .. } => None,
        }
    }

    /// Zone-pruned mask for `slot OP lit` under the raw columnar
    /// semantics (`Eq`/`Ne` IEEE, ordering via `total_cmp`). `None` for
    /// the codes plane. The mask covers **slots** — the caller clears
    /// null rows, exactly like the raw path.
    pub fn numeric_cmp_mask(&self, op: CmpOp, lit: f64) -> Option<Vec<bool>> {
        self.numeric_blocks_mask(
            |zone| classify_cmp(zone, op, lit),
            move |v| match op {
                CmpOp::Eq => v == lit,
                CmpOp::Ne => v != lit,
                _ => op.test(v.total_cmp(&lit)),
            },
        )
    }

    /// Zone-pruned mask for `lo ≤ slot < hi` under total order (`None`
    /// for the codes plane).
    pub fn between_mask(&self, lo: f64, hi: f64) -> Option<Vec<bool>> {
        self.numeric_blocks_mask(
            |zone| classify_between(zone, lo, hi),
            move |v| v.total_cmp(&lo) != Ordering::Less && v.total_cmp(&hi) == Ordering::Less,
        )
    }

    /// Zone-pruned mask for exact `i64` equality (`Eq`) or inequality
    /// (`Ne`) — the raw path's integer-precision shape. `None` unless
    /// this is the Ints plane.
    pub fn int_eq_mask(&self, op: CmpOp, lit: i64) -> Option<Vec<bool>> {
        let Plane::Ints { blocks, zones, .. } = &self.plane else {
            return None;
        };
        if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
            return None;
        }
        let ne = op == CmpOp::Ne;
        let mut mask = Vec::with_capacity(self.len);
        let mut scratch: Vec<i64> = Vec::with_capacity(GRAM_BLOCK_ROWS);
        for (block, zone) in blocks.iter().zip(zones) {
            let class = if zone.valid == 0 {
                BlockClass::AllFalse
            } else if lit < zone.min || lit > zone.max {
                // No valid slot equals the literal.
                if ne {
                    BlockClass::AllTrue
                } else {
                    BlockClass::AllFalse
                }
            } else if zone.min == zone.max {
                // Every valid slot equals the literal.
                if ne {
                    BlockClass::AllFalse
                } else {
                    BlockClass::AllTrue
                }
            } else {
                BlockClass::Decode
            };
            match class {
                BlockClass::AllTrue => {
                    self.bump(&self.skipped);
                    mask.extend(std::iter::repeat_n(true, block.len()));
                }
                BlockClass::AllFalse => {
                    self.bump(&self.skipped);
                    mask.extend(std::iter::repeat_n(false, block.len()));
                }
                BlockClass::Decode => {
                    self.bump(&self.scanned);
                    scratch.clear();
                    block.decode_into(&mut scratch);
                    mask.extend(scratch.iter().map(|&v| (v == lit) != ne));
                }
            }
        }
        Some(mask)
    }

    /// Zone-pruned mask for dictionary-code equality (`Eq`) or inequality
    /// (`Ne`); `target` is the literal's resolved code (`None` when the
    /// string is not in the pool — the raw path's "never present" shape).
    /// `None` unless this is the Codes plane.
    pub fn code_eq_mask(&self, op: CmpOp, target: Option<u32>) -> Option<Vec<bool>> {
        let Plane::Codes { blocks, zones, .. } = &self.plane else {
            return None;
        };
        if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
            return None;
        }
        let ne = op == CmpOp::Ne;
        let Some(code) = target else {
            // Not interned: Eq matches nothing, Ne matches every slot
            // (nulls cleared by the caller).
            return Some(vec![ne; self.len]);
        };
        let mut mask = Vec::with_capacity(self.len);
        let mut scratch: Vec<u32> = Vec::with_capacity(GRAM_BLOCK_ROWS);
        for (block, zone) in blocks.iter().zip(zones) {
            let class = if zone.valid == 0 {
                BlockClass::AllFalse
            } else if code < zone.min || code > zone.max {
                if ne {
                    BlockClass::AllTrue
                } else {
                    BlockClass::AllFalse
                }
            } else if zone.min == zone.max {
                if ne {
                    BlockClass::AllFalse
                } else {
                    BlockClass::AllTrue
                }
            } else {
                BlockClass::Decode
            };
            match class {
                BlockClass::AllTrue => {
                    self.bump(&self.skipped);
                    mask.extend(std::iter::repeat_n(true, block.len()));
                }
                BlockClass::AllFalse => {
                    self.bump(&self.skipped);
                    mask.extend(std::iter::repeat_n(false, block.len()));
                }
                BlockClass::Decode => {
                    self.bump(&self.scanned);
                    scratch.clear();
                    block.decode_into(&mut scratch);
                    mask.extend(scratch.iter().map(|&c| (c == code) != ne));
                }
            }
        }
        Some(mask)
    }

    /// Approximate resident bytes, deduplicated by allocation identity
    /// through `seen` (see `Column::approx_bytes_dedup`): the static block
    /// payload is keyed by this value's own address, and lazily
    /// materialized caches are keyed by their `Arc` allocations so a
    /// session view aliasing the decoded buffer is not double-charged.
    pub(crate) fn approx_bytes_dedup(&self, seen: &mut HashSet<usize>) -> usize {
        let mut total = if seen.insert(self as *const CompressedColumn as usize) {
            self.static_bytes()
        } else {
            0
        };
        let mut note = |ptr: usize, bytes: usize| {
            if seen.insert(ptr) {
                bytes
            } else {
                0
            }
        };
        match &self.plane {
            Plane::Floats { decoded, .. } => {
                if let Some(buf) = decoded.get() {
                    total += note(Arc::as_ptr(buf) as usize, buf.len() * 8);
                }
            }
            Plane::Ints { decoded, .. } => {
                if let Some(buf) = decoded.get() {
                    total += note(Arc::as_ptr(buf) as usize, buf.len() * 8);
                }
            }
            Plane::Codes { dict, decoded, .. } => {
                if let Some(buf) = decoded.get() {
                    total += note(Arc::as_ptr(buf) as usize, buf.len() * 4);
                }
                if let Some(d) = dict.cache.get() {
                    total += note(Arc::as_ptr(d) as usize, d.approx_bytes());
                }
            }
        }
        total
    }

    /// The compressed payload alone (blocks, zones, sealed dictionary) —
    /// no materialized caches.
    pub fn static_bytes(&self) -> usize {
        match &self.plane {
            Plane::Floats { blocks, zones, .. } => {
                blocks.iter().map(FloatBlock::payload_bytes).sum::<usize>()
                    + zones.len() * std::mem::size_of::<FloatZone>()
            }
            Plane::Ints { blocks, zones, .. } => {
                blocks.iter().map(IntBlock::payload_bytes).sum::<usize>()
                    + zones.len() * std::mem::size_of::<IntZone>()
            }
            Plane::Codes {
                dict,
                blocks,
                zones,
                ..
            } => {
                dict.payload_bytes()
                    + blocks.iter().map(CodeBlock::payload_bytes).sum::<usize>()
                    + zones.len() * std::mem::size_of::<CodeZone>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitpack_roundtrips_all_widths() {
        for width in 1..=63u32 {
            let max = if width == 63 {
                u64::MAX >> 1
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..200u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & max)
                .collect();
            let packed = pack_bits(&values, width);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(unpack_bits(&packed, width, i), v, "width {width} slot {i}");
            }
        }
    }

    #[test]
    fn float_blocks_choose_and_roundtrip() {
        // Constant block.
        let constant = vec![7.25f64; GRAM_BLOCK_ROWS];
        assert!(matches!(
            FloatBlock::encode(&constant),
            FloatBlock::Const { .. }
        ));
        // Rounded payroll-style integers take the delta path.
        let salaries: Vec<f64> = (0..GRAM_BLOCK_ROWS).map(|i| 52_000.0 + i as f64).collect();
        let block = FloatBlock::encode(&salaries);
        assert!(matches!(block, FloatBlock::Ints(_)), "{block:?}");
        let mut out = Vec::new();
        block.decode_into(&mut out);
        let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        let raw: Vec<u64> = salaries.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, raw);
        // NaN / ±∞ / -0.0 force the raw path and survive bit-for-bit.
        let weird = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1.5e-300];
        let block = FloatBlock::encode(&weird);
        assert!(matches!(block, FloatBlock::Raw { .. }));
        let mut out = Vec::new();
        block.decode_into(&mut out);
        for (a, b) in out.iter().zip(weird.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn code_blocks_pick_rle_for_runs() {
        let runs: Vec<u32> = std::iter::repeat_n(3u32, 90)
            .chain(std::iter::repeat_n(1u32, 38))
            .collect();
        let block = CodeBlock::encode(&runs);
        assert!(matches!(block, CodeBlock::Rle { .. }));
        let mut out = Vec::new();
        block.decode_into(&mut out);
        assert_eq!(out, runs);
        // High-churn codes pick bit packing.
        let churn: Vec<u32> = (0..128u32).map(|i| i % 7).collect();
        let block = CodeBlock::encode(&churn);
        assert!(matches!(block, CodeBlock::Packed { .. }));
        let mut out = Vec::new();
        block.decode_into(&mut out);
        assert_eq!(out, churn);
        for (i, &c) in churn.iter().enumerate() {
            assert_eq!(block.get(i), c);
        }
    }

    #[test]
    fn sealed_dict_preserves_codes() {
        let mut dict = StrDict::new();
        for s in ["POL", "FRS", "HHS", "DOT", "LIB"] {
            dict.intern(s);
        }
        let sealed = SealedDict::seal(&dict);
        assert_eq!(sealed.entries(), 5);
        let back = sealed.dict().unwrap();
        assert_eq!(back.len(), 5);
        for code in 0..5u32 {
            assert_eq!(back.resolve(code), dict.resolve(code));
            assert_eq!(back.code_of(dict.resolve(code)), Some(code));
        }
    }

    #[test]
    fn zone_pruning_skips_blocks_and_matches_exact_scan() {
        // Two value regimes in separate blocks: the first block is all
        // 10.0, the second climbs 100..  — an Eq(10.0) must skip both
        // blocks (one all-true, one all-false).
        let mut values = vec![10.0f64; GRAM_BLOCK_ROWS];
        values.extend((0..GRAM_BLOCK_ROWS).map(|i| 100.0 + i as f64));
        let col = CompressedColumn::from_floats(&values, None);
        let mask = col.numeric_cmp_mask(CmpOp::Eq, 10.0).unwrap();
        let expect: Vec<bool> = values.iter().map(|&v| v == 10.0).collect();
        assert_eq!(mask, expect);
        let (skipped, scanned) = col.zone_stats();
        assert_eq!((skipped, scanned), (2, 0), "both blocks decided by zones");
        // A threshold cutting through block 2 must decode only block 2.
        let mask = col.numeric_cmp_mask(CmpOp::Ge, 150.0).unwrap();
        let expect: Vec<bool> = values
            .iter()
            .map(|&v| v.total_cmp(&150.0) != Ordering::Less)
            .collect();
        assert_eq!(mask, expect);
        let (skipped, scanned) = col.zone_stats();
        assert_eq!((skipped, scanned), (3, 1));
    }

    #[test]
    fn zero_literal_eq_handles_signed_zero() {
        let values = [-0.0f64, 0.0, 1.0, -1.0];
        let col = CompressedColumn::from_floats(&values, None);
        let mask = col.numeric_cmp_mask(CmpOp::Eq, 0.0).unwrap();
        assert_eq!(mask, vec![true, true, false, false]);
        let mask = col.numeric_cmp_mask(CmpOp::Eq, -0.0).unwrap();
        assert_eq!(mask, vec![true, true, false, false]);
        // An all-zero block (mixed signs) must classify all-true, not
        // decode: its total-order zone is exactly [-0.0, +0.0].
        let zeros = [-0.0f64, 0.0, -0.0, 0.0];
        let col = CompressedColumn::from_floats(&zeros, None);
        let mask = col.numeric_cmp_mask(CmpOp::Eq, 0.0).unwrap();
        assert_eq!(mask, vec![true; 4]);
        assert_eq!(col.zone_stats(), (1, 0));
    }

    #[test]
    fn nan_literals_short_circuit() {
        let values = [1.0f64, f64::NAN, 3.0];
        let col = CompressedColumn::from_floats(&values, None);
        assert_eq!(
            col.numeric_cmp_mask(CmpOp::Eq, f64::NAN).unwrap(),
            vec![false; 3]
        );
        assert_eq!(
            col.numeric_cmp_mask(CmpOp::Ne, f64::NAN).unwrap(),
            vec![true; 3]
        );
        // NaN slot under ordering: total_cmp sorts NaN above +∞, so
        // Ge(2.0) includes it — identical to the raw columnar loop.
        assert_eq!(
            col.numeric_cmp_mask(CmpOp::Ge, 2.0).unwrap(),
            vec![false, true, true]
        );
    }

    #[test]
    fn all_null_blocks_never_match() {
        let values = vec![0.0f64; GRAM_BLOCK_ROWS + 3];
        let validity = vec![false; GRAM_BLOCK_ROWS + 3];
        let col = CompressedColumn::from_floats(&values, Some(&validity));
        let mask = col.numeric_cmp_mask(CmpOp::Eq, 0.0).unwrap();
        assert_eq!(mask, vec![false; GRAM_BLOCK_ROWS + 3]);
        assert_eq!(col.zone_stats().1, 0, "no block should decode");
    }

    #[test]
    fn int_plane_exact_equality_and_cast_ordering() {
        let values: Vec<i64> = (0..300).map(|i| (i % 19) - 9).collect();
        let col = CompressedColumn::from_ints(&values, None);
        let mask = col.int_eq_mask(CmpOp::Eq, 3).unwrap();
        let expect: Vec<bool> = values.iter().map(|&v| v == 3).collect();
        assert_eq!(mask, expect);
        let mask = col.numeric_cmp_mask(CmpOp::Lt, 0.5).unwrap();
        let expect: Vec<bool> = values
            .iter()
            .map(|&v| (v as f64).total_cmp(&0.5) == Ordering::Less)
            .collect();
        assert_eq!(mask, expect);
        // Huge magnitudes stress the i64↔f64 cast boundary.
        let big = [i64::MAX, i64::MAX - 1, i64::MIN, 0];
        let col = CompressedColumn::from_ints(&big, None);
        let decoded = col.decode_ints().unwrap();
        assert_eq!(decoded.as_slice(), &big);
        let mask = col.int_eq_mask(CmpOp::Eq, i64::MAX).unwrap();
        assert_eq!(mask, vec![true, false, false, false]);
    }

    #[test]
    fn between_mask_matches_exact() {
        let values: Vec<f64> = (0..260).map(|i| i as f64 * 0.5).collect();
        let col = CompressedColumn::from_floats(&values, None);
        let mask = col.between_mask(10.0, 60.0).unwrap();
        let expect: Vec<bool> = values
            .iter()
            .map(|&v| v.total_cmp(&10.0) != Ordering::Less && v.total_cmp(&60.0) == Ordering::Less)
            .collect();
        assert_eq!(mask, expect);
    }
}
