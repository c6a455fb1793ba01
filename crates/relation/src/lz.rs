//! Dependency-free byte compression for sealed column payloads.
//!
//! A small LZSS-style codec used by the compressed column plane
//! ([`crate::compress`]) to shrink sealed (immutable) dictionary payloads.
//! The container bakes in no compression crates, so this is a minimal,
//! self-contained implementation tuned for the repetitive text that
//! dictionary pools hold (names, department labels, grades):
//!
//! - greedy matcher over a 64 KiB window, 4-byte minimum match;
//! - single-slot hash table (no chains) — compression speed over ratio;
//! - token format: a control byte carries 8 flags (LSB first), `0` =
//!   literal byte follows, `1` = match follows as `distance: u16 LE`
//!   (1-based back-reference) plus `length − 4: u8` (match lengths
//!   4..=259).
//!
//! Decompression is strict: malformed streams produce an error, never a
//! panic — sealed payloads are decoded on serving paths.

use crate::error::{RelationError, Result};

/// Minimum match length worth encoding (a match token costs 3 bytes plus
/// one flag bit; literals cost 1 byte plus one flag bit).
const MIN_MATCH: usize = 4;
/// Maximum match length one token can carry.
const MAX_MATCH: usize = MIN_MATCH + u8::MAX as usize;
/// Back-reference window (distances are 1-based `u16`).
const WINDOW: usize = u16::MAX as usize;
/// log2 of the hash-table size.
const HASH_BITS: u32 = 16;

/// Hash the 4 bytes at `pos` into a table index.
fn hash4(input: &[u8], pos: usize) -> usize {
    let quad = u32::from_le_bytes([input[pos], input[pos + 1], input[pos + 2], input[pos + 3]]);
    (quad.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compress `input`. The output carries no length header — callers store
/// the uncompressed length alongside (see [`decompress`]).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // Last position seen for each 4-byte-prefix hash; a plain vector, so
    // probing is deterministic and allocation-free per step.
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut flags_at = usize::MAX;
    let mut flag_bit = 8u32;
    let mut push_token = |out: &mut Vec<u8>, is_match: bool, bytes: &[u8]| {
        if flag_bit == 8 {
            flags_at = out.len();
            out.push(0);
            flag_bit = 0;
        }
        if is_match {
            out[flags_at] |= 1 << flag_bit;
        }
        flag_bit += 1;
        out.extend_from_slice(bytes);
    };
    while pos < input.len() {
        let mut matched = 0usize;
        let mut distance = 0usize;
        if pos + MIN_MATCH <= input.len() {
            let h = hash4(input, pos);
            let candidate = table[h];
            table[h] = pos;
            if candidate != usize::MAX && pos - candidate <= WINDOW {
                let limit = (input.len() - pos).min(MAX_MATCH);
                let mut len = 0usize;
                while len < limit && input[candidate + len] == input[pos + len] {
                    len += 1;
                }
                if len >= MIN_MATCH {
                    matched = len;
                    distance = pos - candidate;
                }
            }
        }
        if matched >= MIN_MATCH {
            let d = distance as u16;
            let l = (matched - MIN_MATCH) as u8;
            push_token(&mut out, true, &[d.to_le_bytes()[0], d.to_le_bytes()[1], l]);
            // Seed the table inside the match so later data can reference
            // its interior; sampling every position would be quadratic-ish
            // for long runs, every 4th is plenty for dictionary text.
            let mut p = pos + 1;
            let end = (pos + matched).min(input.len().saturating_sub(MIN_MATCH));
            while p < end {
                table[hash4(input, p)] = p;
                p += 4;
            }
            pos += matched;
        } else {
            push_token(&mut out, false, &input[pos..pos + 1]);
            pos += 1;
        }
    }
    out
}

/// Decompress a [`compress`] stream into exactly `raw_len` bytes.
pub fn decompress(input: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let malformed = || RelationError::Eval("malformed compressed payload".to_string());
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 0usize;
    while out.len() < raw_len {
        let flags = *input.get(pos).ok_or_else(malformed)?;
        pos += 1;
        for bit in 0..8 {
            if out.len() >= raw_len {
                break;
            }
            if flags & (1 << bit) == 0 {
                out.push(*input.get(pos).ok_or_else(malformed)?);
                pos += 1;
            } else {
                let token = input.get(pos..pos + 3).ok_or_else(malformed)?;
                pos += 3;
                let distance = u16::from_le_bytes([token[0], token[1]]) as usize;
                let len = token[2] as usize + MIN_MATCH;
                if distance == 0 || distance > out.len() || out.len() + len > raw_len {
                    return Err(malformed());
                }
                // Matches may overlap their own output (run encoding), so
                // copy byte-by-byte from the back-reference.
                let start = out.len() - distance;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    // A well-formed stream is consumed exactly: trailing bytes mean the
    // declared length and the stream disagree.
    if out.len() != raw_len || pos != input.len() {
        return Err(malformed());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        let back = decompress(&packed, data.len()).unwrap();
        assert_eq!(back.as_slice(), data);
    }

    #[test]
    fn roundtrips_edge_shapes() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcd");
        roundtrip(&[0u8; 1000]);
        roundtrip(
            "Anne Smith,Bob Smith,Anne Jones,Bob Jones,"
                .repeat(50)
                .as_bytes(),
        );
        let mixed: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761)) as u8)
            .collect();
        roundtrip(&mixed);
    }

    #[test]
    fn repetitive_text_actually_shrinks() {
        let data = "department of transportation;".repeat(200);
        let packed = compress(data.as_bytes());
        assert!(
            packed.len() * 4 < data.len(),
            "expected ≥ 4x on repetitive text, got {} -> {}",
            data.len(),
            packed.len()
        );
    }

    #[test]
    fn overlapping_match_runs_decode() {
        // "aaaa..." forces distance-1 matches that overlap their output.
        let data = vec![b'a'; 700];
        roundtrip(&data);
    }

    #[test]
    fn malformed_streams_error_not_panic() {
        assert!(decompress(&[], 5).is_err());
        // Flag says match but the token is truncated.
        assert!(decompress(&[0b0000_0001, 9], 9).is_err());
        // Match reaches behind the start of the output.
        assert!(decompress(&[0b0000_0010, b'x', 5, 0, 0], 9).is_err());
        // Declared length shorter than the stream produces.
        let packed = compress(b"abcdefgh");
        assert!(decompress(&packed, 4).is_err());
    }
}
