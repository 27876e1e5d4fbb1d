//! Packed witness lists: how a Deg-Res-Sampling entry stores its witnesses.
//!
//! Theorem 3.2 charges each stored witness `O(log n)` bits. A reservoir
//! entry's list only grows, one witness at a time, up to `d₂`, and is
//! dropped whole on eviction. So a [`WitnessList`] keeps its witnesses as
//! zigzag-delta LEB128 bytes: each witness minus the one before it
//! (wrapping), zigzag-mapped so a small step either way takes one byte. The
//! length and the last value sit inline, which is all a push needs.
//!
//! A list has one of two shapes:
//!
//! * **growing** — a `Vec<u8>` whose capacity is always the next power of
//!   two of its byte length, a pure function of its contents, so a list
//!   restored from a checkpoint is charged exactly what the same list grown
//!   push by push is;
//! * **frozen** — once full, an exact-size shared `Arc<[u8]>`. Algorithm 1
//!   never changes a full list again, so a published view shares it by
//!   refcount instead of copying it.
//!
//! **Worst case.** A zigzag-delta varint takes at most 10 B, against 8 B
//! for a `u64`: exactly 10 B when consecutive witnesses differ by 2⁶³. On
//! uniformly random 64-bit witnesses a witness takes ≈ 9.5 B on average.
//! Timestamps, ids and other witnesses that cluster take 1–3 B.

use crate::wire::put_uvarint;
use fews_common::SpaceUsage;
use std::sync::Arc;

/// The capacity a growing byte list (or a reservoir's slot vector) of
/// `len` elements holds: the next power of two, 0 when empty.
pub(crate) fn pow2_capacity(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.next_power_of_two()
    }
}

fn zigzag(step: u64) -> u64 {
    let step = step as i64;
    ((step << 1) ^ (step >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// LEB128 length of `v` in bytes (1–10).
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// A witness list packed as zigzag-delta varints (see the module docs).
///
/// Worst case 10 B per witness (a step of exactly 2⁶³), ≈ 9.5 B on
/// uniformly random 64-bit witnesses, against 8 B as a `u64`.
///
/// ```
/// use fews_core::witness_list::WitnessList;
///
/// let mut list: WitnessList = [1_700_000_000u64, 1_700_000_003, 1_699_999_999]
///     .into_iter()
///     .collect();
/// assert_eq!(list.to_vec(), vec![1_700_000_000, 1_700_000_003, 1_699_999_999]);
/// assert_eq!(list.byte_len(), 5 + 1 + 1); // the first value, then ±small steps
/// list.freeze();
/// assert_eq!(list.len(), 3);
/// ```
#[derive(Debug)]
pub struct WitnessList {
    len: u32,
    /// The last witness pushed (0 when empty): the base of the next delta.
    last: u64,
    bytes: Bytes,
}

#[derive(Debug)]
enum Bytes {
    Growing(Vec<u8>),
    Frozen(Arc<[u8]>),
}

impl WitnessList {
    /// An empty growing list (allocates nothing).
    pub const fn new() -> Self {
        WitnessList {
            len: 0,
            last: 0,
            bytes: Bytes::Growing(Vec::new()),
        }
    }

    /// Number of witnesses.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list holds no witness.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the list is frozen into a shared exact-size allocation.
    pub fn is_frozen(&self) -> bool {
        matches!(self.bytes, Bytes::Frozen(_))
    }

    fn packed(&self) -> &[u8] {
        match &self.bytes {
            Bytes::Growing(v) => v,
            Bytes::Frozen(a) => a,
        }
    }

    /// Bytes the packed witnesses take (excluding capacity slack).
    pub fn byte_len(&self) -> usize {
        self.packed().len()
    }

    /// Heap bytes the list owns: a growing list's capacity, or a frozen
    /// list's allocation (its two reference counts plus the bytes).
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.bytes {
            Bytes::Growing(v) => v.capacity(),
            Bytes::Frozen(a) => 2 * std::mem::size_of::<usize>() + a.len(),
        }
    }

    /// Append `w`. A frozen list is first copied back into a growing one.
    pub fn push(&mut self, w: u64) {
        self.thaw();
        let Bytes::Growing(bytes) = &mut self.bytes else {
            unreachable!("thawed above")
        };
        let step = zigzag(w.wrapping_sub(self.last));
        let need = bytes.len() + varint_len(step);
        if need > bytes.capacity() {
            bytes.reserve_exact(pow2_capacity(need) - bytes.len());
        }
        put_uvarint(bytes, step);
        self.last = w;
        self.len = self.len.checked_add(1).expect("witness count fits u32");
    }

    /// Move the bytes into an exact-size shared allocation. The list keeps
    /// its contents; clones then share the bytes instead of copying them.
    pub fn freeze(&mut self) {
        if let Bytes::Growing(v) = &self.bytes {
            self.bytes = Bytes::Frozen(Arc::from(v.as_slice()));
        }
    }

    /// Copy a frozen list's bytes back into a growing one.
    pub(crate) fn thaw(&mut self) {
        if let Bytes::Frozen(a) = &self.bytes {
            let mut v = Vec::with_capacity(pow2_capacity(a.len()));
            v.extend_from_slice(a);
            self.bytes = Bytes::Growing(v);
        }
    }

    /// Pack the `n` witnesses `next` yields, frozen when `frozen`; `None`
    /// as soon as `next` fails. The bytes go through `scratch`, working
    /// room reused across calls, so the list costs one allocation of its
    /// final size.
    pub(crate) fn pack_with(
        n: usize,
        frozen: bool,
        scratch: &mut Vec<u8>,
        mut next: impl FnMut() -> Option<u64>,
    ) -> Option<WitnessList> {
        let len = u32::try_from(n).ok()?;
        scratch.clear();
        let mut last = 0u64;
        for _ in 0..n {
            let w = next()?;
            put_uvarint(scratch, zigzag(w.wrapping_sub(last)));
            last = w;
        }
        let bytes = if frozen {
            Bytes::Frozen(Arc::from(scratch.as_slice()))
        } else {
            let mut v = Vec::with_capacity(pow2_capacity(scratch.len()));
            v.extend_from_slice(scratch);
            Bytes::Growing(v)
        };
        Some(WitnessList { len, last, bytes })
    }

    /// Whether both lists are frozen and share one allocation.
    pub fn shares_bytes_with(&self, other: &WitnessList) -> bool {
        matches!((&self.bytes, &other.bytes), (Bytes::Frozen(a), Bytes::Frozen(b)) if Arc::ptr_eq(a, b))
    }

    /// The witnesses in push order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            bytes: self.packed(),
            prev: 0,
            left: self.len as usize,
        }
    }

    /// The witnesses, decoded.
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

impl Default for WitnessList {
    fn default() -> Self {
        WitnessList::new()
    }
}

/// A growing list's copy keeps the power-of-two capacity; a frozen list's
/// copy shares its bytes.
impl Clone for WitnessList {
    fn clone(&self) -> Self {
        let bytes = match &self.bytes {
            Bytes::Growing(v) => {
                let mut copy = Vec::with_capacity(v.capacity());
                copy.extend_from_slice(v);
                Bytes::Growing(copy)
            }
            Bytes::Frozen(a) => Bytes::Frozen(Arc::clone(a)),
        };
        WitnessList {
            len: self.len,
            last: self.last,
            bytes,
        }
    }
}

/// Equal contents, whatever the shape (the packing is canonical).
impl PartialEq for WitnessList {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.packed() == other.packed()
    }
}

impl Eq for WitnessList {}

impl FromIterator<u64> for WitnessList {
    fn from_iter<I: IntoIterator<Item = u64>>(ws: I) -> Self {
        let mut list = WitnessList::new();
        for w in ws {
            list.push(w);
        }
        list
    }
}

impl SpaceUsage for WitnessList {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.heap_bytes()
    }
}

/// Decoding iterator over a [`WitnessList`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bytes: &'a [u8],
    prev: u64,
    left: usize,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.left = self.left.checked_sub(1)?;
        let (mut z, mut i) = (0u64, 0usize);
        loop {
            let byte = self.bytes[i];
            z |= u64::from(byte & 0x7f) << (7 * i);
            i += 1;
            if byte < 0x80 {
                break;
            }
        }
        self.bytes = &self.bytes[i..];
        self.prev = self.prev.wrapping_add(unzigzag(z));
        Some(self.prev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use fews_common::rng::splitmix64;
    use proptest::prelude::*;

    fn roundtrip(ws: &[u64]) {
        let mut list: WitnessList = ws.iter().copied().collect();
        assert_eq!(list.len(), ws.len());
        assert_eq!(list.to_vec(), ws);
        assert!(list.byte_len() <= 10 * ws.len());
        assert_eq!(list.heap_bytes(), pow2_capacity(list.byte_len()));
        list.freeze();
        assert_eq!(list.to_vec(), ws, "freezing changed the contents");
        assert_eq!(
            list.heap_bytes(),
            2 * std::mem::size_of::<usize>() + list.byte_len(),
            "a frozen list is charged exactly"
        );
    }

    #[test]
    fn edge_values_roundtrip() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[u64::MAX]);
        roundtrip(&[0, u64::MAX, 0, u64::MAX, 1, u64::MAX - 1]);
        roundtrip(&(0..500).collect::<Vec<_>>()); // monotone
        roundtrip(&(0..500).rev().collect::<Vec<_>>()); // decreasing
        roundtrip(&[7; 300]); // repeated
        roundtrip(&[1 << 63, 0, 1 << 63, u64::MAX, 1 << 62]);
    }

    proptest! {
        #[test]
        fn random_lists_roundtrip(ws in proptest::collection::vec(any::<u64>(), 0..300)) {
            roundtrip(&ws);
        }

        #[test]
        fn clustered_lists_roundtrip(
            base in any::<u64>(),
            steps in proptest::collection::vec(0u64..1000, 0..300),
        ) {
            let ws: Vec<u64> = steps.iter().map(|s| base.wrapping_add(*s)).collect();
            roundtrip(&ws);
        }
    }

    /// The stated worst case: 10 B per witness, reached exactly by steps of
    /// 2⁶³; uniformly random 64-bit witnesses average ≈ 9.5 B.
    #[test]
    fn worst_case_is_ten_bytes_per_witness() {
        let alternating: Vec<u64> = (0..1000).map(|i| (i % 2) << 63).collect();
        let list: WitnessList = alternating.iter().copied().collect();
        // The first witness is 0 (one byte); every later step is ±2⁶³.
        assert_eq!(list.byte_len(), 1 + 10 * 999);

        let mut state = 2021u64;
        let random: Vec<u64> = (0..20_000)
            .map(|_| {
                state = splitmix64(state);
                state
            })
            .collect();
        let list: WitnessList = random.iter().copied().collect();
        let per = list.byte_len() as f64 / random.len() as f64;
        assert!((9.4..9.6).contains(&per), "{per} B per random witness");
        assert_eq!(list.to_vec(), random);
    }

    #[test]
    fn clones_share_frozen_bytes_and_copy_growing_ones() {
        let mut list: WitnessList = (100..200).collect();
        let copy = list.clone();
        assert!(!copy.shares_bytes_with(&list));
        assert_eq!(copy.heap_bytes(), list.heap_bytes());
        list.freeze();
        let shared = list.clone();
        assert!(shared.shares_bytes_with(&list));
        assert_eq!(shared, copy, "equality ignores the shape");
        // A push onto a frozen list copies it back out first.
        let mut thawed = shared.clone();
        thawed.push(7);
        assert!(!thawed.is_frozen() && shared.is_frozen());
        assert_eq!(thawed.len(), 101);
        assert_eq!(shared.to_vec(), (100..200).collect::<Vec<_>>());
    }

    #[test]
    fn growing_capacity_is_a_function_of_the_bytes() {
        let mut pushed = WitnessList::new();
        for w in 0..5000u64 {
            pushed.push(w * w);
            let collected: WitnessList = pushed.iter().collect();
            assert_eq!(pushed.heap_bytes(), collected.heap_bytes());
            assert_eq!(pushed.heap_bytes(), pow2_capacity(pushed.byte_len()));
        }
    }
}
