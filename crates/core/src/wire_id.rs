//! Wire format for the insertion-deletion algorithm's memory state.
//!
//! The Lemma 6.3 reduction sends the state of
//! [`FewwInsertDelete`](crate::insertion_deletion::FewwInsertDelete) from
//! Alice to Bob, and the engine checkpoints it. That state is the register
//! file of every ℓ₀-sampler cell: the `(count, index-sum, fingerprint)`
//! triples of the [`fews_sketch::bank::SamplerBank`] layout — *exact-level*
//! registers in (bank, sampler, level, row, column) order, vertex banks
//! ascending then the edge bank. Hash functions are shared public
//! randomness, re-derived from the seed on the receiving side, so only
//! registers travel.
//!
//! Encoding: zig-zag + LEB128 varints. A stream opens with a `0` sentinel
//! and the version tag `2`, then the bank count, the register count and the
//! registers.
//!
//! The retired pre-bank format, wire v1, opened with its sampler count
//! (always ≥ 1) and carried the per-sampler layout's cumulative-level
//! registers. Those registers belong to hash randomness no instance draws
//! any more, so they cannot be transcoded. [`IdWireState::decode`] still
//! recognises a well-formed v1 stream and refuses it as
//! [`IdDecodeError::PreBank`], so a restore names the format instead of
//! reporting noise.

use crate::insertion_deletion::FewwInsertDelete;
use crate::wire::{get_uvarint, put_uvarint};

/// Zig-zag encode a signed value for varint storage.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode a 128-bit signed value as two varints (low/high halves of the
/// zig-zagged magnitude).
fn put_i128(buf: &mut Vec<u8>, v: i128) {
    let z = ((v << 1) ^ (v >> 127)) as u128;
    put_uvarint(buf, (z & u64::MAX as u128) as u64);
    put_uvarint(buf, (z >> 64) as u64);
}

fn get_i128(buf: &[u8], pos: &mut usize) -> Option<i128> {
    let lo = get_uvarint(buf, pos)? as u128;
    let hi = get_uvarint(buf, pos)? as u128;
    let z = lo | (hi << 64);
    Some(((z >> 1) as i128) ^ -((z & 1) as i128))
}

/// The version tag a stream carries after its `0` sentinel.
const V2_TAG: u64 = 2;

/// The register file of a [`FewwInsertDelete`] instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdWireState {
    /// Geometry header: bank count (sampled vertices + the edge bank).
    pub banks: u64,
    /// Flat register stream in (bank, sampler, level, row, column) order.
    pub registers: Vec<(i64, i128, u64)>,
}

/// Why [`IdWireState::decode`] refused a byte string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdDecodeError {
    /// A well-formed stream in the retired pre-bank format (wire v1).
    PreBank,
    /// Not a register file: damaged, truncated, or an unknown version.
    Malformed,
}

impl std::fmt::Display for IdDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IdDecodeError::PreBank => {
                "insertion-deletion payload is in the retired pre-bank format (wire v1), \
                 which no longer restores"
            }
            IdDecodeError::Malformed => "malformed insertion-deletion partition payload",
        })
    }
}

impl IdWireState {
    /// Extract the register file from a running instance.
    pub fn capture(alg: &FewwInsertDelete) -> Self {
        let mut registers = Vec::new();
        let mut push = |c: i64, s: i128, f: u64| registers.push((c, s, f));
        for (_, bank) in &alg.vertex_banks {
            bank.visit_cells(&mut push);
        }
        alg.edge_bank.visit_cells(&mut push);
        IdWireState {
            banks: alg.vertex_banks.len() as u64 + 1,
            registers,
        }
    }

    /// Install the register file into an instance constructed with the same
    /// configuration and seed. Panics on a geometry mismatch: callers that
    /// take untrusted bytes check the geometry first, as the engine does.
    pub fn restore(&self, alg: &mut FewwInsertDelete) {
        assert_eq!(
            self.banks,
            alg.vertex_banks.len() as u64 + 1,
            "bank count mismatch on restore"
        );
        let mut cells = self.registers.iter();
        let mut write = |count: &mut i64, index_sum: &mut i128, fingerprint: &mut u64| {
            (*count, *index_sum, *fingerprint) =
                *cells.next().expect("register count mismatch on restore");
        };
        for (_, bank) in &mut alg.vertex_banks {
            bank.visit_cells_mut(&mut write);
        }
        alg.edge_bank.visit_cells_mut(&mut write);
        assert!(cells.next().is_none(), "register count mismatch on restore");
    }

    /// Encode to bytes. Empty cells (the overwhelming majority on sparse
    /// inputs) cost 3 bytes; varints keep live cells near their entropy.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.registers.len() * 4 + 16);
        put_uvarint(&mut buf, 0); // sentinel: never a v1 sampler count
        put_uvarint(&mut buf, V2_TAG);
        put_uvarint(&mut buf, self.banks);
        put_uvarint(&mut buf, self.registers.len() as u64);
        for &(count, index_sum, fingerprint) in &self.registers {
            put_uvarint(&mut buf, zigzag(count));
            put_i128(&mut buf, index_sum);
            put_uvarint(&mut buf, fingerprint);
        }
        buf
    }

    /// Decode from bytes. A well-formed v1 stream is
    /// [`IdDecodeError::PreBank`]; anything else that is not a register
    /// file is [`IdDecodeError::Malformed`].
    pub fn decode(buf: &[u8]) -> Result<Self, IdDecodeError> {
        let mut pos = 0usize;
        let opening = get_uvarint(buf, &mut pos).ok_or(IdDecodeError::Malformed)?;
        // v1 opened with its sampler count; its register stream has the
        // same shape as ours, so both parse with one body decoder.
        let banks = if opening == 0 {
            let header = get_uvarint(buf, &mut pos)
                .filter(|&tag| tag == V2_TAG)
                .and_then(|_| get_uvarint(buf, &mut pos));
            Some(header.ok_or(IdDecodeError::Malformed)?)
        } else {
            None
        };
        let registers = decode_registers(buf, pos).ok_or(IdDecodeError::Malformed)?;
        let banks = banks.ok_or(IdDecodeError::PreBank)?;
        Ok(IdWireState { banks, registers })
    }
}

/// The register count and register triples from `pos` to the end of `buf`;
/// `None` on malformed input or trailing bytes.
fn decode_registers(buf: &[u8], mut pos: usize) -> Option<Vec<(i64, i128, u64)>> {
    let n = get_uvarint(buf, &mut pos)? as usize;
    // Every register costs ≥ 3 bytes, so a count the remaining buffer
    // cannot hold is malformed — reject it before trusting it as a
    // pre-allocation size.
    if n > (buf.len() - pos) / 3 {
        return None;
    }
    let mut registers = Vec::with_capacity(n);
    for _ in 0..n {
        let count = unzigzag(get_uvarint(buf, &mut pos)?);
        let index_sum = get_i128(buf, &mut pos)?;
        let fingerprint = get_uvarint(buf, &mut pos)?;
        registers.push((count, index_sum, fingerprint));
    }
    (pos == buf.len()).then_some(registers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion_deletion::IdConfig;
    use fews_stream::{Edge, Update};

    fn tiny_cfg() -> IdConfig {
        IdConfig::with_scale(8, 32, 4, 2, 0.2)
    }

    fn tiny() -> FewwInsertDelete {
        FewwInsertDelete::new(tiny_cfg(), 9)
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn i128_roundtrip() {
        let mut buf = Vec::new();
        let values = [0i128, -1, 1, i128::from(i64::MAX) * 3, -(1i128 << 100)];
        for &v in &values {
            put_i128(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_i128(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn capture_restore_roundtrip_preserves_results() {
        let mut alice = tiny();
        for b in 0..4u64 {
            alice.push(Update::insert(Edge::new(3, b)));
        }
        let msg = alice.snapshot().encode();

        // Bob: same config + seed ⇒ same hash functions.
        let mut bob = tiny();
        IdWireState::decode(&msg)
            .expect("decodes")
            .restore(&mut bob);
        for b in 0..4u64 {
            bob.push(Update::delete(Edge::new(3, b)));
        }
        assert!(bob.result().is_none(), "all edges were deleted");

        // And continuing with fresh edges works.
        let mut bob2 = tiny();
        IdWireState::decode(&msg).unwrap().restore(&mut bob2);
        for b in 4..8u64 {
            bob2.push(Update::insert(Edge::new(3, b)));
        }
        if let Some(nb) = bob2.result() {
            assert_eq!(nb.vertex, 3);
            assert!(nb.witnesses.iter().all(|&w| w < 8));
        }
    }

    #[test]
    fn v2_geometry_matches_config() {
        let state = tiny().snapshot();
        assert_eq!(state.banks, tiny_cfg().bank_count());
        assert_eq!(state.registers.len(), tiny_cfg().total_cells());
    }

    #[test]
    fn empty_state_is_compact() {
        let state = tiny().snapshot();
        let bytes = state.encode();
        // 3 varint bytes per empty cell + header.
        assert!(
            bytes.len() <= state.registers.len() * 4 + 16,
            "{} bytes for {} cells",
            bytes.len(),
            state.registers.len()
        );
        assert_eq!(IdWireState::decode(&bytes), Ok(state));
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let mut bytes = tiny().snapshot().encode();
        bytes.push(7);
        assert_eq!(IdWireState::decode(&bytes), Err(IdDecodeError::Malformed));
        bytes.pop();
        bytes.pop();
        assert_eq!(IdWireState::decode(&bytes), Err(IdDecodeError::Malformed));
    }

    #[test]
    fn decode_rejects_absurd_register_count_without_allocating() {
        // A corrupted count varint must yield an error, not a
        // capacity-overflow panic from pre-allocating the claimed length —
        // behind either opening.
        for opening in [1u64, 0] {
            let mut bytes = Vec::new();
            put_uvarint(&mut bytes, opening);
            if opening == 0 {
                put_uvarint(&mut bytes, 2); // v2 tag
                put_uvarint(&mut bytes, 1); // banks
            }
            put_uvarint(&mut bytes, 1 << 60); // registers "count"
            assert_eq!(IdWireState::decode(&bytes), Err(IdDecodeError::Malformed));
        }
    }

    #[test]
    fn decode_rejects_unknown_version() {
        let mut bytes = Vec::new();
        put_uvarint(&mut bytes, 0); // v2 sentinel
        put_uvarint(&mut bytes, 7); // bogus version
        put_uvarint(&mut bytes, 1);
        put_uvarint(&mut bytes, 0);
        assert_eq!(IdWireState::decode(&bytes), Err(IdDecodeError::Malformed));
    }

    #[test]
    fn pre_bank_stream_is_named_not_restored() {
        // The v1 shape: uvarint(samplers ≥ 1), uvarint(cells), then the
        // register triples — no sentinel, no version tag.
        let mut bytes = Vec::new();
        put_uvarint(&mut bytes, 3);
        put_uvarint(&mut bytes, 2);
        for &(c, s, f) in &[(1i64, 5i128, 9u64), (0, 0, 0)] {
            put_uvarint(&mut bytes, zigzag(c));
            put_i128(&mut bytes, s);
            put_uvarint(&mut bytes, f);
        }
        assert_eq!(IdWireState::decode(&bytes), Err(IdDecodeError::PreBank));
        assert!(IdDecodeError::PreBank.to_string().contains("pre-bank"));
        // A damaged v1 stream is malformed, like any other noise.
        bytes.pop();
        assert_eq!(IdWireState::decode(&bytes), Err(IdDecodeError::Malformed));
    }
}
