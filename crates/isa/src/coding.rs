//! Bit-level I/O and the JPEG DC Huffman parameter coder (Section 5.2).
//!
//! The paper compresses the 8-bit quantized parameters with "the DC Huffman
//! coding in JPEG": each value is split into a *category* (the bit length of
//! its magnitude) which is Huffman-coded, followed by that many raw
//! magnitude bits (one's-complement for negative values). One Huffman table
//! per restart segment is sufficient because quantized parameter
//! distributions are similar (Table 5 shows cross-entropies close to the
//! Shannon limit); tables are serialized JPEG-DHT-style (16 length counts +
//! symbols) at the head of each segment.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum category: 8-bit codes span [-255, 255] after no operation we do,
/// but we allow the full JPEG DC range for robustness.
pub const MAX_CATEGORY: usize = 11;

/// MSB-first bit writer. Bits gather in a 64-bit accumulator and leave it
/// 32 at a time, so a `put` of up to 32 bits costs a shift, an OR and at
/// most one four-byte store.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits: the low `pending` bits, MSB first.
    acc: u64,
    /// Bits in `acc` not yet in `bytes` (0..32 between calls).
    pending: u32,
}

#[deny(clippy::arithmetic_side_effects)]
impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the `count` low bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    #[inline]
    pub fn put(&mut self, value: u32, count: u8) {
        assert!(count <= 32);
        let count = u32::from(count);
        let mask = 1u64.wrapping_shl(count).wrapping_sub(1);
        // At most 31 + 32 bits are pending here, inside the 64.
        self.acc = self.acc.wrapping_shl(count) | (u64::from(value) & mask);
        self.pending = self.pending.wrapping_add(count);
        if self.pending >= 32 {
            self.pending = self.pending.wrapping_sub(32);
            let word = self.acc.wrapping_shr(self.pending) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn byte_align(&mut self) {
        while self.pending >= 8 {
            self.pending = self.pending.wrapping_sub(8);
            self.bytes.push(self.acc.wrapping_shr(self.pending) as u8);
        }
        if self.pending > 0 {
            let pad = 8u32.wrapping_sub(self.pending);
            self.bytes.push(self.acc.wrapping_shl(pad) as u8);
            self.pending = 0;
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes
            .len()
            .saturating_mul(8)
            .saturating_add(self.pending as usize)
    }

    /// Finishes (byte-aligning) and returns the bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.byte_align();
        self.bytes
    }
}

/// MSB-first bit reader.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    /// Reads from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::OutOfBits`] at end of input.
    pub fn bit(&mut self) -> Result<u32, CodingError> {
        let byte = self.pos / 8;
        if byte >= self.bytes.len() {
            return Err(CodingError::OutOfBits);
        }
        let bit = (self.bytes[byte] >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit as u32)
    }

    /// Reads `count` bits MSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::OutOfBits`] at end of input.
    pub fn bits(&mut self, count: u8) -> Result<u32, CodingError> {
        let mut v = 0;
        for _ in 0..count {
            v = (v << 1) | self.bit()?;
        }
        Ok(v)
    }

    /// The bits from the current position on, MSB-aligned in a `u64`:
    /// at least 57 of them, zero past the end of the input. The decoder
    /// tests feed [`HuffDecoder::decode`] from a reader at any bit
    /// position through this; [`decode_segment`] reads a `BitBuffer`.
    #[cfg(test)]
    fn window(&self) -> u64 {
        let tail = self.bytes.get(self.pos / 8..).unwrap_or(&[]);
        let word = match tail.first_chunk::<8>() {
            Some(b) => u64::from_be_bytes(*b),
            None => {
                let mut buf = [0u8; 8];
                buf[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(buf)
            }
        };
        word << (self.pos % 8)
    }

    /// Bits left to read.
    #[cfg(test)]
    fn remaining(&self) -> usize {
        (self.bytes.len() * 8).saturating_sub(self.pos)
    }

    /// Skips to the next byte boundary.
    pub fn byte_align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    /// Current bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}

/// Errors from the entropy codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodingError {
    /// Ran out of input bits.
    OutOfBits,
    /// Encountered a Huffman code with no assigned symbol.
    BadCode,
    /// A serialized table was malformed.
    BadTable,
}

impl fmt::Display for CodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodingError::OutOfBits => write!(f, "bitstream exhausted"),
            CodingError::BadCode => write!(f, "invalid huffman code"),
            CodingError::BadTable => write!(f, "malformed huffman table"),
        }
    }
}

impl std::error::Error for CodingError {}

/// JPEG DC category of a value: 0 for 0, otherwise `bit_length(|v|)`.
#[inline]
pub fn category(v: i32) -> u8 {
    let mag = v.unsigned_abs();
    (32 - mag.leading_zeros()) as u8
}

/// The `cat` magnitude bits of `v` (one's complement for negatives).
#[inline]
pub fn magnitude_bits(v: i32, cat: u8) -> u32 {
    // `v >> 31` is all ones exactly for a negative `v`, which adds
    // 2^cat − 1: a mask, not a branch, since signs are unpredictable.
    (v + ((v >> 31) & ((1 << cat) - 1))) as u32
}

/// Inverse of [`magnitude_bits`].
#[inline]
pub fn value_from_bits(bits: u32, cat: u8) -> i32 {
    // Bits below 2^(cat − 1) are a negative value's one's complement
    // (none for category 0). A select, not a branch: signs are
    // unpredictable.
    let negative = bits < (1 << cat) >> 1;
    bits as i32 - if negative { (1 << cat) - 1 } else { 0 }
}

/// A canonical Huffman table over category symbols.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HuffTable {
    /// Code length per symbol (0 = unused symbol).
    pub lengths: Vec<u8>,
    /// Canonical code per symbol.
    pub codes: Vec<u16>,
}

impl HuffTable {
    /// Builds a length-limited (≤16) canonical Huffman table from symbol
    /// frequencies. Symbols with zero frequency get no code.
    ///
    /// # Panics
    ///
    /// Panics if all frequencies are zero.
    pub fn build(freqs: &[u64]) -> Self {
        assert!(freqs.iter().any(|&f| f > 0), "empty frequency table");
        let n = freqs.len();
        // Huffman via pairwise merge over (weight, node) heaps; then extract
        // depths. Simple O(n^2) is fine for ≤ MAX_CATEGORY+1 symbols.
        #[derive(Clone)]
        enum Node {
            Leaf(usize),
            Internal(Box<Node>, Box<Node>),
        }
        let mut heap: Vec<(u64, Node)> = freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(i, &f)| (f, Node::Leaf(i)))
            .collect();
        let mut lengths = vec![0u8; n];
        if heap.len() == 1 {
            // Single symbol: JPEG assigns it a 1-bit code.
            if let Node::Leaf(i) = heap[0].1 {
                lengths[i] = 1;
            }
        } else {
            while heap.len() > 1 {
                heap.sort_by_key(|(w, _)| std::cmp::Reverse(*w));
                let (wa, a) = heap.pop().expect("len > 1");
                let (wb, b) = heap.pop().expect("len > 1");
                heap.push((wa + wb, Node::Internal(Box::new(a), Box::new(b))));
            }
            fn walk(node: &Node, depth: u8, lengths: &mut [u8]) {
                match node {
                    Node::Leaf(i) => lengths[*i] = depth.max(1),
                    Node::Internal(a, b) => {
                        walk(a, depth + 1, lengths);
                        walk(b, depth + 1, lengths);
                    }
                }
            }
            walk(&heap[0].1, 0, &mut lengths);
        }
        // A code is at most 16 bits. The coder's 12 category symbols give
        // a tree at most 11 deep, so only an oversized alphabet gets here;
        // clamping its lengths would make an over-subscribed code.
        assert!(
            lengths.iter().all(|&l| l <= 16),
            "Huffman code longer than 16 bits ({n} symbols)"
        );
        Self::from_lengths(lengths)
    }

    /// Assigns canonical codes from lengths (shorter codes first, then by
    /// symbol index).
    pub fn from_lengths(lengths: Vec<u8>) -> Self {
        let mut symbols: Vec<usize> = (0..lengths.len()).filter(|&i| lengths[i] > 0).collect();
        symbols.sort_by_key(|&i| (lengths[i], i));
        let mut codes = vec![0u16; lengths.len()];
        let mut code = 0u16;
        let mut prev_len = 0u8;
        for &s in &symbols {
            code <<= lengths[s] - prev_len;
            codes[s] = code;
            code += 1;
            prev_len = lengths[s];
        }
        Self { lengths, codes }
    }

    /// Serializes JPEG-DHT style: 16 per-length counts, then symbols in
    /// canonical order.
    pub fn write(&self, w: &mut BitWriter) {
        let mut counts = [0u8; 16];
        let mut symbols: Vec<usize> = (0..self.lengths.len())
            .filter(|&i| self.lengths[i] > 0)
            .collect();
        symbols.sort_by_key(|&i| (self.lengths[i], i));
        for &s in &symbols {
            counts[self.lengths[s] as usize - 1] += 1;
        }
        for c in counts {
            w.put(c as u32, 8);
        }
        for s in symbols {
            w.put(s as u32, 8);
        }
    }

    /// Deserializes a table written by [`HuffTable::write`].
    ///
    /// # Errors
    ///
    /// Returns [`CodingError`] on truncated or inconsistent input:
    /// [`CodingError::BadTable`] for a header declaring no symbol, more
    /// symbols than there are categories, a symbol twice or out of range,
    /// or more codes of some lengths than a prefix code has room for (a
    /// Kraft sum above 1, such as three 1-bit codes).
    pub fn read(r: &mut BitReader<'_>) -> Result<Self, CodingError> {
        let mut counts = [0usize; 16];
        for c in &mut counts {
            *c = r.bits(8)? as usize;
        }
        let total: usize = counts.iter().sum();
        // Kraft sum in units of 2⁻¹⁶: a length-`l` code takes 2^(16 − l).
        let kraft: usize = counts
            .iter()
            .enumerate()
            .map(|(len_idx, &cnt)| cnt << (15 - len_idx))
            .sum();
        if total == 0 || total > MAX_CATEGORY + 1 || kraft > 1 << 16 {
            return Err(CodingError::BadTable);
        }
        let mut lengths = vec![0u8; MAX_CATEGORY + 1];
        for (len_idx, &cnt) in counts.iter().enumerate() {
            for _ in 0..cnt {
                let sym = r.bits(8)? as usize;
                if sym >= lengths.len() || lengths[sym] != 0 {
                    return Err(CodingError::BadTable);
                }
                lengths[sym] = len_idx as u8 + 1;
            }
        }
        Ok(Self::from_lengths(lengths))
    }

    /// Encodes one symbol.
    ///
    /// # Panics
    ///
    /// Panics if the symbol has no code (zero frequency at build time).
    pub fn encode(&self, sym: usize, w: &mut BitWriter) {
        let len = self.lengths[sym];
        assert!(len > 0, "symbol {sym} has no code");
        w.put(self.codes[sym] as u32, len);
    }

    /// The decoding tables of this table's codes. The table must be a
    /// prefix code, as every table [`HuffTable::build`] makes and
    /// [`HuffTable::read`] accepts is: the lookahead entries of its codes
    /// then tile disjoint ranges of `0..256`.
    fn decoder(&self) -> HuffDecoder {
        let mut symbols: Vec<usize> = (0..self.lengths.len())
            .filter(|&i| self.lengths[i] > 0)
            .collect();
        symbols.sort_by_key(|&i| (self.lengths[i], i));
        let mut d = HuffDecoder {
            lookahead: [Lookahead::default(); 256],
            first: [0; 16],
            count: [0; 16],
            offset: [0; 16],
            symbols: symbols.iter().map(|&s| s as u8).collect(),
        };
        for (k, &s) in symbols.iter().enumerate().rev() {
            let len = self.lengths[s];
            let l = usize::from(len) - 1;
            d.first[l] = u32::from(self.codes[s]);
            d.count[l] += 1;
            d.offset[l] = k;
            if len <= LOOKAHEAD_BITS {
                // Every 8-bit window that starts with this code.
                let free = LOOKAHEAD_BITS - len;
                let base = usize::from(self.codes[s]) << free;
                d.lookahead[base..base + (1 << free)].fill(Lookahead {
                    symbol: s as u8,
                    len,
                });
            }
        }
        d
    }
}

/// Code lengths the [`HuffDecoder`]'s lookahead table resolves in one
/// step (JPEG's `HUFF_LOOKAHEAD`).
const LOOKAHEAD_BITS: u8 = 8;

/// One lookahead entry: the symbol whose code starts the 8-bit window
/// and the code's length, or `len == 0` when no code of at most 8 bits
/// does.
#[derive(Clone, Copy, Debug, Default)]
struct Lookahead {
    symbol: u8,
    len: u8,
}

/// Canonical Huffman decoding tables. A code of at most 8 bits is found
/// by indexing a 256-entry table with the next 8 input bits (JPEG's
/// `LOOKUP`). A longer one uses the first-code-per-length scheme
/// (JPEG's `MAXCODE`/`VALPTR`): the codes of one length are consecutive
/// integers in symbol order, so an `l`-bit prefix is a code exactly when
/// it lies in length `l`'s range, and its offset in that range picks the
/// symbol.
struct HuffDecoder {
    /// The code of at most 8 bits starting each 8-bit window.
    lookahead: [Lookahead; 256],
    /// Per code length `1..=16` (index `length − 1`): its first code,
    first: [u32; 16],
    /// its number of codes,
    count: [u32; 16],
    /// and the index of its first symbol in `symbols`.
    offset: [usize; 16],
    /// The coded symbols in canonical order (by length, then symbol).
    symbols: Vec<u8>,
}

impl HuffDecoder {
    /// The symbol whose code starts `window` (a reader's next bits, of
    /// which `left` are input, zero past them), and the code's length.
    ///
    /// # Errors
    ///
    /// [`CodingError::OutOfBits`] when the input ends before a code does,
    /// and [`CodingError::BadCode`] when no code of at most 16 bits
    /// matches and a 17th bit follows.
    fn decode(&self, window: u64, left: usize) -> Result<(usize, usize), CodingError> {
        let hit = self.lookahead[(window >> (64 - LOOKAHEAD_BITS)) as usize];
        if hit.len > 0 {
            // A prefix code has no other code that is a prefix of these
            // bits, so a bit-serial decoder runs out of input before it
            // matches anything when the code is cut off.
            let len = usize::from(hit.len);
            return if len <= left {
                Ok((usize::from(hit.symbol), len))
            } else {
                Err(CodingError::OutOfBits)
            };
        }
        for len in usize::from(LOOKAHEAD_BITS) + 1..=16 {
            if len > left {
                return Err(CodingError::OutOfBits);
            }
            let k = ((window >> (64 - len)) as u32).wrapping_sub(self.first[len - 1]);
            if k < self.count[len - 1] {
                let sym = self.symbols[self.offset[len - 1] + k as usize];
                return Ok((usize::from(sym), len));
            }
        }
        // A bit-serial decoder reads a 17th bit before it finds no code;
        // its errors are kept.
        Err(if left > 16 {
            CodingError::BadCode
        } else {
            CodingError::OutOfBits
        })
    }
}

/// Per-category value counts of a value set: the statistics a segment's
/// Huffman table is built from.
pub(crate) type Histogram = [u64; MAX_CATEGORY + 1];

/// The category [`Histogram`] of `values`.
///
/// # Panics
///
/// Panics if a value's category exceeds [`MAX_CATEGORY`] (`|v| ≥ 2048`);
/// [`QuantizedModel::check`](crate::params::QuantizedModel::check) rejects
/// such codes before they reach the coder.
pub(crate) fn histogram(values: &[i16]) -> Histogram {
    let mut h = [0u64; MAX_CATEGORY + 1];
    for &v in values {
        count(&mut h, v);
    }
    h
}

/// Counts `v` into its category's slot of `h`.
///
/// # Panics
///
/// As [`histogram`].
#[inline]
pub(crate) fn count(h: &mut Histogram, v: i16) {
    let slot = h
        .get_mut(category(v.into()) as usize)
        .unwrap_or_else(|| panic!("code {v} is outside the coder's range ±2047"));
    *slot += 1;
}

/// The Huffman table a segment with category histogram `h` carries (an
/// empty segment still carries a one-symbol table).
fn segment_table(h: &Histogram) -> HuffTable {
    let mut freqs = *h;
    if freqs.iter().all(|&f| f == 0) {
        freqs[0] = 1;
    }
    HuffTable::build(&freqs)
}

/// Bytes of an encoded segment with histogram `h` and table `table`: the
/// table header (16 length counts plus one byte per coded symbol), then
/// every value's code and magnitude bits, padded to a byte.
fn segment_bytes(h: &Histogram, table: &HuffTable) -> usize {
    let symbols = table.lengths.iter().filter(|&&l| l > 0).count();
    let bits: u64 = h
        .iter()
        .zip(&table.lengths)
        .enumerate()
        .map(|(cat, (&n, &len))| n * (u64::from(len) + cat as u64))
        .sum();
    16 + symbols + bits.div_ceil(8) as usize
}

/// Encodes one restart segment: Huffman table header followed by
/// category+magnitude codes for every value; byte-aligned at the end.
///
/// # Panics
///
/// Panics if a value lies outside `±2047` (see [`MAX_CATEGORY`]).
pub fn encode_segment(values: &[i16]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_counted(values, &histogram(values), &mut out);
    out
}

/// [`encode_segment`] with the values' histogram already counted,
/// appended to `out`.
pub(crate) fn encode_counted(values: &[i16], h: &Histogram, out: &mut Vec<u8>) {
    let table = segment_table(h);
    // Per category: its code shifted past the magnitude bits, and the
    // bits a value of that category takes (at most 16 + 11).
    let mut prefix = [(0u32, 0u8); MAX_CATEGORY + 1];
    for (cat, p) in prefix.iter_mut().enumerate() {
        let len = table.lengths[cat];
        if len > 0 {
            *p = (u32::from(table.codes[cat]) << cat, len + cat as u8);
        }
    }
    out.reserve(segment_bytes(h, &table));
    let mut w = BitWriter {
        bytes: std::mem::take(out),
        ..BitWriter::default()
    };
    table.write(&mut w);
    for &v in values {
        let cat = category(v.into());
        let (code, len) = prefix[usize::from(cat)];
        w.put(code | magnitude_bits(v.into(), cat), len);
    }
    *out = w.into_bytes();
}

/// Decodes a segment produced by [`encode_segment`], returning `count`
/// values and the number of bytes consumed.
///
/// # Errors
///
/// Returns [`CodingError`] on malformed input.
pub fn decode_segment(bytes: &[u8], count: usize) -> Result<(Vec<i16>, usize), CodingError> {
    let mut r = BitReader::new(bytes);
    let table = HuffTable::read(&mut r)?.decoder();
    // The header is whole bytes; the values follow it.
    let header = r.bit_pos() / 8;
    let mut buf = BitBuffer::new(&bytes[header..]);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        // One window holds a value's code and its magnitude bits: at
        // most 16 + 11 bits.
        buf.refill();
        let (window, left) = (buf.acc, buf.left());
        let (cat, len) = table.decode(window, left)?;
        if len + cat > left {
            return Err(CodingError::OutOfBits);
        }
        // The `cat` bits after the code; none for category 0.
        let bits = ((window << len) >> 1 >> (63 - cat)) as u32;
        buf.consume(len + cat);
        out.push(value_from_bits(bits, cat as u8) as i16);
    }
    Ok((out, header + buf.consumed().div_ceil(8)))
}

/// A byte slice's next unread bits, held MSB-first in a register and
/// refilled 32 bits at a time, so reading a value depends on the last one
/// only through a shift of the register.
struct BitBuffer<'a> {
    bytes: &'a [u8],
    /// Bytes of `bytes` loaded into `acc`.
    next: usize,
    /// The unread loaded bits, MSB-aligned, zero below them.
    acc: u64,
    /// How many bits of `acc` are unread.
    bits: usize,
}

impl<'a> BitBuffer<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            next: 0,
            acc: 0,
            bits: 0,
        }
    }

    /// Loads bytes until at least 32 bits are held or the input is all
    /// loaded.
    #[inline]
    fn refill(&mut self) {
        if self.bits >= 32 {
            return;
        }
        if let Some(word) = self.bytes[self.next..].first_chunk::<4>() {
            self.acc |= u64::from(u32::from_be_bytes(*word)) << (32 - self.bits);
            self.bits += 32;
            self.next += 4;
        } else {
            while let Some(&b) = self.bytes.get(self.next).filter(|_| self.bits <= 56) {
                self.acc |= u64::from(b) << (56 - self.bits);
                self.bits += 8;
                self.next += 1;
            }
        }
    }

    /// Bits left to read, loaded or not.
    #[inline]
    fn left(&self) -> usize {
        self.bits + 8 * (self.bytes.len() - self.next)
    }

    /// Drops the next `n` bits, which must be loaded.
    #[inline]
    fn consume(&mut self, n: usize) {
        self.acc <<= n;
        self.bits -= n;
    }

    /// Bits read so far.
    fn consumed(&self) -> usize {
        8 * self.next - self.bits
    }
}

/// Entropy statistics of a value set under the category+magnitude model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EntropyStats {
    /// Shannon limit in bits per coefficient (category entropy + magnitude
    /// bits).
    pub shannon_bits: f64,
    /// Actual encoded bits per coefficient (including the table header).
    pub encoded_bits: f64,
    /// Compression ratio versus raw 8-bit storage.
    pub compression_ratio: f64,
}

/// Computes [`EntropyStats`] for `values` (assuming one segment).
pub fn entropy_stats(values: &[i16]) -> EntropyStats {
    stats_of(&histogram(values))
}

/// [`EntropyStats`] of a one-segment value set with histogram `h`. The
/// encoded size is counted from the histogram and the table's code
/// lengths, which gives exactly [`encode_segment`]'s length without
/// encoding.
pub(crate) fn stats_of(h: &Histogram) -> EntropyStats {
    let count: u64 = h.iter().sum();
    let magnitude_bits_total: u64 = h.iter().enumerate().map(|(c, &f)| f * c as u64).sum();
    let n = count.max(1) as f64;
    let mut cat_entropy = 0.0;
    for &f in h {
        if f > 0 {
            let p = f as f64 / n;
            cat_entropy -= p * p.log2();
        }
    }
    let shannon = cat_entropy + magnitude_bits_total as f64 / n;
    let encoded = segment_bytes(h, &segment_table(h)) as f64 * 8.0 / n;
    EntropyStats {
        shannon_bits: shannon,
        encoded_bits: encoded,
        compression_ratio: 8.0 / encoded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bit_writer_reader_round_trip() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0xAB, 8);
        w.put(1, 1);
        w.byte_align();
        w.put(0xFFFF, 16);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(3).unwrap(), 0b101);
        assert_eq!(r.bits(8).unwrap(), 0xAB);
        assert_eq!(r.bits(1).unwrap(), 1);
        r.byte_align();
        assert_eq!(r.bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.bit(), Err(CodingError::OutOfBits));
    }

    #[test]
    fn categories_match_jpeg_dc() {
        assert_eq!(category(0), 0);
        assert_eq!(category(1), 1);
        assert_eq!(category(-1), 1);
        assert_eq!(category(2), 2);
        assert_eq!(category(3), 2);
        assert_eq!(category(-128), 8);
        assert_eq!(category(127), 7);
        assert_eq!(category(255), 8);
    }

    #[test]
    fn magnitude_round_trip_all_8bit() {
        for v in -255i32..=255 {
            let c = category(v);
            let bits = magnitude_bits(v, c);
            assert!(bits < (1 << c.max(1)), "v={v}");
            assert_eq!(value_from_bits(bits, c), v, "v={v}");
        }
    }

    #[test]
    fn huffman_single_symbol() {
        let mut freqs = vec![0u64; 9];
        freqs[0] = 100;
        let t = HuffTable::build(&freqs);
        assert_eq!(t.lengths[0], 1);
        let mut w = BitWriter::new();
        t.encode(0, &mut w);
        assert_eq!(w.bit_len(), 1);
    }

    #[test]
    fn huffman_assigns_short_codes_to_frequent_symbols() {
        let freqs = vec![1000, 500, 100, 10, 1];
        let t = HuffTable::build(&freqs);
        assert!(t.lengths[0] <= t.lengths[4]);
        // Kraft inequality holds with equality for a complete code.
        let kraft: f64 = t
            .lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12);
    }

    #[test]
    fn table_serialization_round_trip() {
        let freqs = vec![10, 20, 5, 0, 7, 1, 0, 0, 2];
        let t = HuffTable::build(&freqs);
        let mut w = BitWriter::new();
        t.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let t2 = HuffTable::read(&mut r).unwrap();
        // Lengths must agree for symbols with codes (canonical => same codes).
        for (i, (&l, &l2)) in t.lengths.iter().zip(&t2.lengths).enumerate() {
            assert_eq!(l, l2, "symbol {i}");
        }
    }

    /// A serialized header: `counts[l]` codes of length `l + 1`, then
    /// `symbols`.
    fn header(counts: &[(usize, u8)], symbols: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        let mut per_len = [0u8; 16];
        for &(l, c) in counts {
            per_len[l] = c;
        }
        for c in per_len {
            w.put(c.into(), 8);
        }
        for &s in symbols {
            w.put(s.into(), 8);
        }
        w.into_bytes()
    }

    #[test]
    fn over_subscribed_headers_are_bad_tables() {
        // Three 1-bit codes: a Kraft sum of 3/2, no prefix code.
        let mut bytes = header(&[(0, 3)], &[0, 1, 2]);
        bytes.extend([0x5a; 4]);
        assert_eq!(
            HuffTable::read(&mut BitReader::new(&bytes)),
            Err(CodingError::BadTable)
        );
        assert_eq!(decode_segment(&bytes, 2), Err(CodingError::BadTable));
        // One 1-bit, one 2-bit and two 3-bit codes fill the code space
        // exactly; one more 3-bit code over-fills it.
        let full = header(&[(0, 1), (1, 1), (2, 2)], &[0, 1, 2, 3]);
        let t = HuffTable::read(&mut BitReader::new(&full)).unwrap();
        assert_eq!(t.codes[..4], [0b0, 0b10, 0b110, 0b111]);
        let over = header(&[(0, 1), (1, 1), (2, 3)], &[0, 1, 2, 3, 4]);
        assert_eq!(
            HuffTable::read(&mut BitReader::new(&over)),
            Err(CodingError::BadTable)
        );
        // A 16-bit code on top of a full code space is one too many.
        let deep = header(&[(0, 2), (15, 1)], &[0, 1, 2]);
        assert_eq!(
            HuffTable::read(&mut BitReader::new(&deep)),
            Err(CodingError::BadTable)
        );
    }

    #[test]
    fn segment_round_trip_typical_weights() {
        // Laplacian-ish small weights, the typical post-training shape.
        let values: Vec<i16> = (0..512)
            .map(|i| {
                let x = ((i * 37) % succinct_mod(i)) as i16 - 8;
                x.clamp(-128, 127)
            })
            .collect();
        let bytes = encode_segment(&values);
        let (decoded, used) = decode_segment(&bytes, values.len()).unwrap();
        assert_eq!(decoded, values);
        assert_eq!(used, bytes.len());
    }

    fn succinct_mod(i: usize) -> usize {
        17 + (i % 3)
    }

    #[test]
    fn compression_ratio_in_paper_range_for_peaked_weights() {
        // Quantized CNN weights are near-Laplacian: most values tiny. The
        // paper reports 1.1-1.5x compression.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let values: Vec<i16> = (0..4096)
            .map(|_| {
                let u: f64 = rng.gen_range(-1.0..1.0);
                // heavier tail than uniform, like trained weights
                (u.powi(3) * 90.0) as i16
            })
            .collect();
        let stats = entropy_stats(&values);
        assert!(
            stats.compression_ratio > 1.05 && stats.compression_ratio < 1.9,
            "ratio {}",
            stats.compression_ratio
        );
        assert!(
            stats.encoded_bits >= stats.shannon_bits - 0.01,
            "cannot beat Shannon: {} vs {}",
            stats.encoded_bits,
            stats.shannon_bits
        );
        // Close to the Shannon limit (Table 5's observation), allowing the
        // table header overhead.
        assert!(stats.encoded_bits < stats.shannon_bits + 0.6);
    }

    #[test]
    fn empty_segment_is_decodable() {
        let bytes = encode_segment(&[]);
        let (decoded, _) = decode_segment(&bytes, 0).unwrap();
        assert!(decoded.is_empty());
    }

    /// The bit-at-a-time writer the accumulator replaces: the model the
    /// property below checks [`BitWriter`] against.
    #[derive(Default)]
    struct BitModel {
        bytes: Vec<u8>,
        bit_pos: u8,
    }

    impl BitModel {
        fn put(&mut self, value: u32, count: u8) {
            for i in (0..count).rev() {
                if self.bit_pos == 0 {
                    self.bytes.push(0);
                }
                let bit = ((value >> i) & 1) as u8;
                *self.bytes.last_mut().unwrap() |= bit << (7 - self.bit_pos);
                self.bit_pos = (self.bit_pos + 1) % 8;
            }
        }

        fn bit_len(&self) -> usize {
            (self.bytes.len() * 8 + usize::from(self.bit_pos))
                - if self.bit_pos == 0 { 0 } else { 8 }
        }
    }

    /// The decoder the canonical tables replace: one bit at a time, each
    /// step scanning every symbol for a code of that length and value.
    fn scan_decode(t: &HuffTable, r: &mut BitReader<'_>) -> Result<usize, CodingError> {
        let (mut code, mut len) = (0u16, 0u8);
        loop {
            code = (code << 1) | r.bit()? as u16;
            len += 1;
            if len > 16 {
                return Err(CodingError::BadCode);
            }
            for (s, (&l, &c)) in t.lengths.iter().zip(&t.codes).enumerate() {
                if l == len && c == code {
                    return Ok(s);
                }
            }
        }
    }

    #[test]
    fn entropy_stats_size_matches_the_encoded_segment() {
        let cases: [&[i16]; 5] = [
            &[],
            &[0; 9],
            &[5],
            &[-2047, 2047, 0, 1, -1],
            &[3, -3, 3, 100],
        ];
        for values in cases {
            let n = values.len().max(1) as f64;
            let bytes = encode_segment(values).len() as f64;
            assert_eq!(
                entropy_stats(values).encoded_bits,
                bytes * 8.0 / n,
                "{values:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside the coder's range")]
    fn uncodable_values_panic_with_a_message() {
        encode_segment(&[1, 2048]);
    }

    proptest! {
        #[test]
        fn prop_segment_round_trip(values in proptest::collection::vec(-128i16..=127, 0..600)) {
            let bytes = encode_segment(&values);
            let (decoded, used) = decode_segment(&bytes, values.len()).unwrap();
            prop_assert_eq!(decoded, values);
            prop_assert_eq!(used, bytes.len());
        }

        /// The accumulator writer emits exactly the bit-at-a-time
        /// model's bytes, over runs of puts of 0..=32 bits of arbitrary
        /// values (high bits beyond `count` set too), separated by byte
        /// alignments.
        #[test]
        fn prop_bit_writer_matches_the_bit_model(
            runs in proptest::collection::vec(
                proptest::collection::vec(0u64..=u64::MAX, 0..40),
                1..5,
            ),
        ) {
            let mut w = BitWriter::new();
            let mut model = BitModel::default();
            for run in &runs {
                for &draw in run {
                    // Low half: the value; high half: the count, 0..=32.
                    let (value, count) = (draw as u32, ((draw >> 32) % 33) as u8);
                    w.put(value, count);
                    model.put(value, count);
                    prop_assert_eq!(w.bit_len(), model.bit_len());
                }
                w.byte_align();
                model.bit_pos = 0;
                prop_assert_eq!(w.bit_len(), model.bit_len());
            }
            prop_assert_eq!(w.into_bytes(), model.bytes);
        }

        /// The counted size equals the encoder's output on random
        /// segments across the whole codable range.
        #[test]
        fn prop_counted_size_matches_encode_segment(
            values in proptest::collection::vec(-2047i16..=2047, 0..300),
        ) {
            let n = values.len().max(1) as f64;
            let bytes = encode_segment(&values).len() as f64;
            prop_assert_eq!(entropy_stats(&values).encoded_bits, bytes * 8.0 / n);
        }

        /// The canonical decoder returns what a bit-at-a-time scan of
        /// every symbol's code returns — the symbol or the error — and
        /// leaves the reader at the same bit, on random tables and bit
        /// strings (including truncated and unmatched codes).
        #[test]
        fn prop_decoder_matches_the_bit_at_a_time_scan(
            freqs in proptest::collection::vec(0u64..50, 1..MAX_CATEGORY + 2),
            bytes in proptest::collection::vec(0u8..=255, 0..6),
            skip in 0usize..8,
        ) {
            prop_assume!(freqs.iter().any(|&f| f > 0));
            let table = HuffTable::build(&freqs);
            let decoder = table.decoder();
            let (mut a, mut b) = (BitReader::new(&bytes), BitReader::new(&bytes));
            for _ in 0..skip.min(bytes.len() * 8) {
                a.bit().unwrap();
                b.bit().unwrap();
            }
            loop {
                let want = scan_decode(&table, &mut a);
                let got = decoder.decode(b.window(), b.remaining());
                prop_assert_eq!(got.map(|(sym, _)| sym), want);
                let Ok((_, len)) = got else { break };
                b.pos += len;
                prop_assert_eq!(a.bit_pos(), b.bit_pos());
            }
        }

        #[test]
        fn prop_magnitude_bits_invertible(v in -2000i32..2000) {
            let c = category(v);
            prop_assert_eq!(value_from_bits(magnitude_bits(v, c), c), v);
        }
    }
}
