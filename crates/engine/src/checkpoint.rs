//! The engine checkpoint container format.
//!
//! A checkpoint is a tagged concatenation of per-partition `fews_core::wire`
//! snapshots:
//!
//! ```text
//! magic   b"FEWWCKP1"                     (8 bytes)
//! header  model tag (0 = insertion-only, 1 = insertion-deletion)
//!         seed, partitions, n, m, d, alpha      (LEB128 varints; m = 0 io)
//! body    P × { payload length varint, payload bytes }   partition order
//! ```
//!
//! Payload `p` is [`fews_core::wire::MemoryState::encode`] (insertion-only)
//! or [`fews_core::wire_id::IdWireState::encode`] (insertion-deletion, the
//! sampler-bank layout) of partition `p`. An insertion-deletion payload in
//! the retired pre-bank layout (wire v1) is refused when a restore
//! validates it, before anything is installed.
//!
//! Because the body is keyed by *partition* — the unit of both randomness
//! and routing — a checkpoint written at one shard count restores at any
//! other, and two engines that saw the same stream under the same master
//! seed write byte-identical checkpoints regardless of K.

use crate::{EngineConfig, ModelSpec};
use fews_common::spaceid::MAX_SPACE_NAME;
use fews_core::wire::{get_uvarint, put_uvarint};

/// Magic bytes opening every engine checkpoint.
pub const MAGIC: &[u8; 8] = b"FEWWCKP1";

/// Magic bytes opening a space-tagged v3 checkpoint envelope.
pub const ENVELOPE_MAGIC: &[u8; 8] = b"FEWWCKP3";

/// Per-partition payloads: `(partition id, encoded wire-format state)`.
pub type PartitionPayloads = Vec<(u32, Vec<u8>)>;

/// Why a checkpoint failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte string does not start with [`MAGIC`].
    BadMagic,
    /// The byte string ends inside the header or body.
    Truncated,
    /// The header disagrees with the restoring engine's configuration.
    ConfigMismatch(String),
    /// A partition payload failed to decode or validate.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not an engine checkpoint (bad magic)"),
            CheckpointError::Truncated => write!(f, "checkpoint is truncated"),
            CheckpointError::ConfigMismatch(m) => write!(f, "config mismatch: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The decoded checkpoint header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// 0 = insertion-only, 1 = insertion-deletion.
    pub model: u64,
    /// Master seed of the writing engine.
    pub seed: u64,
    /// Logical partition count `P`.
    pub partitions: u64,
    /// `n` (A-vertices).
    pub n: u64,
    /// `m` (B-vertices; 0 for the insertion-only model).
    pub m: u64,
    /// Degree threshold `d`.
    pub d: u64,
    /// Approximation factor α.
    pub alpha: u64,
}

impl Header {
    /// The header an engine with configuration `cfg` writes.
    pub fn for_config(cfg: &EngineConfig) -> Header {
        let (model, n, m, d, alpha) = match cfg.model {
            ModelSpec::InsertOnly(c) => (0, c.n as u64, 0, c.d as u64, c.alpha as u64),
            ModelSpec::InsertDelete(c) => (1, c.n as u64, c.m, c.d as u64, c.alpha as u64),
        };
        Header {
            model,
            seed: cfg.seed,
            partitions: cfg.partitions as u64,
            n,
            m,
            d,
            alpha,
        }
    }

    /// Read the header's seven varints at `pos` (a container or a slice).
    fn get(bytes: &[u8], pos: &mut usize) -> Result<Header, CheckpointError> {
        let mut next = || get_uvarint(bytes, pos).ok_or(CheckpointError::Truncated);
        Ok(Header {
            model: next()?,
            seed: next()?,
            partitions: next()?,
            n: next()?,
            m: next()?,
            d: next()?,
            alpha: next()?,
        })
    }

    /// Check compatibility with a restoring engine's configuration.
    pub fn check_against(&self, cfg: &EngineConfig) -> Result<(), CheckpointError> {
        let expect = Header::for_config(cfg);
        if *self != expect {
            return Err(CheckpointError::ConfigMismatch(format!(
                "checkpoint {self:?} vs engine {expect:?}"
            )));
        }
        Ok(())
    }
}

/// A parsed space-tagged checkpoint envelope, or the default-space view of
/// a bare v1 container. The envelope wraps the container untouched:
///
/// ```text
/// magic    b"FEWWCKP3"                    (8 bytes)
/// space    name length varint, name bytes (UTF-8, SpaceId charset)
/// wal_seq  varint — highest WAL record sequence number already folded into
///          the inner container; recovery replays only records beyond it
/// acked    varint — the ack watermark a restart re-seeds from: `wal_seq`
///          on a node, the lifetime update count on a router
/// inner    the bare v1 container (b"FEWWCKP1"…), to the end of the bytes
/// ```
///
/// Older layouts still read: the v2 envelope (`b"FEWWCKP2"`, no `acked`),
/// and a bare `FEWWCKP1` container as `(space = "default", wal_seq = 0)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// Name of the space the checkpoint belongs to.
    pub space: &'a str,
    /// WAL sequence watermark: records with `seq <= wal_seq` are already in
    /// the container and must not be replayed again.
    pub wal_seq: u64,
    /// The ack watermark the checkpoint covers; `None` in a v1 container or
    /// a v2 envelope, which predate it.
    pub acked: Option<u64>,
    /// The bare v1 partition container.
    pub inner: &'a [u8],
}

/// Wrap a bare v1 container in a v3 envelope whose ack watermark is
/// `wal_seq` — a node's, whose acks ride the WAL sequence.
pub fn wrap_envelope(space: &str, wal_seq: u64, inner: &[u8]) -> Vec<u8> {
    wrap_acked(space, wal_seq, wal_seq, inner)
}

/// Wrap a bare v1 container in a v3 envelope: the one envelope encoder.
pub fn wrap_acked(space: &str, wal_seq: u64, acked: u64, inner: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(34 + space.len() + inner.len());
    buf.extend_from_slice(ENVELOPE_MAGIC);
    put_uvarint(&mut buf, space.len() as u64);
    buf.extend_from_slice(space.as_bytes());
    put_uvarint(&mut buf, wal_seq);
    put_uvarint(&mut buf, acked);
    buf.extend_from_slice(inner);
    buf
}

/// Parse a checkpoint byte string into its envelope view (any layout
/// [`Envelope`] reads); anything else is [`CheckpointError::BadMagic`].
pub fn unwrap_envelope(bytes: &[u8]) -> Result<Envelope<'_>, CheckpointError> {
    let magic = bytes.get(..MAGIC.len()).ok_or(CheckpointError::BadMagic)?;
    if magic == MAGIC {
        return Ok(Envelope {
            space: fews_common::DEFAULT_SPACE,
            wal_seq: 0,
            acked: None,
            inner: bytes,
        });
    }
    let v3 = magic == ENVELOPE_MAGIC;
    if !v3 && magic != b"FEWWCKP2" {
        return Err(CheckpointError::BadMagic);
    }
    let mut pos = MAGIC.len();
    let name_len = get_uvarint(bytes, &mut pos).ok_or(CheckpointError::Truncated)? as usize;
    if name_len > MAX_SPACE_NAME {
        return Err(CheckpointError::Corrupt(format!(
            "envelope space name is {name_len} bytes"
        )));
    }
    let name_end = pos
        .checked_add(name_len)
        .filter(|&end| end <= bytes.len())
        .ok_or(CheckpointError::Truncated)?;
    let space = std::str::from_utf8(&bytes[pos..name_end])
        .map_err(|_| CheckpointError::Corrupt("envelope space name is not UTF-8".into()))?;
    pos = name_end;
    let mut next = || get_uvarint(bytes, &mut pos).ok_or(CheckpointError::Truncated);
    let wal_seq = next()?;
    let acked = if v3 { Some(next()?) } else { None };
    Ok(Envelope {
        space,
        wal_seq,
        acked,
        inner: &bytes[pos..],
    })
}

/// [`unwrap_envelope`] for a restore into `space`: an envelope tagged for
/// another space is refused (a bare v1 container is the default space's).
pub fn unwrap_for<'a>(bytes: &'a [u8], space: &str) -> Result<Envelope<'a>, CheckpointError> {
    let env = unwrap_envelope(bytes)?;
    if env.space != space {
        return Err(CheckpointError::ConfigMismatch(format!(
            "checkpoint is for space '{}', not '{space}'",
            env.space
        )));
    }
    Ok(env)
}

/// Assemble a checkpoint from per-partition payloads (must be sorted by
/// partition id and cover `0..P` exactly).
pub fn encode(cfg: &EngineConfig, payloads: &[(u32, Vec<u8>)]) -> Vec<u8> {
    assert_eq!(payloads.len(), cfg.partitions, "payload per partition");
    let h = Header::for_config(cfg);
    let mut buf = Vec::with_capacity(64 + payloads.iter().map(|(_, b)| b.len() + 4).sum::<usize>());
    buf.extend_from_slice(MAGIC);
    for v in [h.model, h.seed, h.partitions, h.n, h.m, h.d, h.alpha] {
        put_uvarint(&mut buf, v);
    }
    for (i, (p, bytes)) in payloads.iter().enumerate() {
        assert_eq!(*p as usize, i, "payloads must be dense and sorted");
        put_uvarint(&mut buf, bytes.len() as u64);
        buf.extend_from_slice(bytes);
    }
    buf
}

/// Split a checkpoint into its header and per-partition payloads.
pub fn decode(bytes: &[u8]) -> Result<(Header, PartitionPayloads), CheckpointError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut pos = MAGIC.len();
    let header = Header::get(bytes, &mut pos)?;
    // Every payload costs at least its length byte: a partition count the
    // bytes left cannot hold is refused before it sizes an allocation.
    if header.partitions > (bytes.len() - pos) as u64 {
        return Err(CheckpointError::Truncated);
    }
    let mut payloads = Vec::with_capacity(header.partitions as usize);
    for p in 0..header.partitions {
        let len = get_uvarint(bytes, &mut pos).ok_or(CheckpointError::Truncated)? as usize;
        let end = pos.checked_add(len).ok_or(CheckpointError::Truncated)?;
        if end > bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        payloads.push((p as u32, bytes[pos..end].to_vec()));
        pos = end;
    }
    if pos != bytes.len() {
        return Err(CheckpointError::Corrupt("trailing bytes".into()));
    }
    Ok((header, payloads))
}

/// Magic bytes opening a *sparse* slice checkpoint: the same header as a
/// full container, but carrying an explicit subset of partitions.
pub const SLICE_MAGIC: &[u8; 8] = b"FEWWSLC1";

/// Assemble a slice checkpoint from a subset of per-partition payloads
/// (must be sorted by partition id, unique, and each `< P`).
///
/// ```text
/// magic   b"FEWWSLC1"                                (8 bytes)
/// header  model, seed, partitions, n, m, d, alpha    (as the full container)
/// count   number of partitions carried               (varint)
/// body    count × { partition id varint, payload length varint, payload }
/// ```
///
/// Because each payload is the same per-partition wire encoding the full
/// container uses, a slice written by one node restores bit-exactly on any
/// other node with the same configuration — the handoff primitive for
/// cluster membership changes.
pub fn encode_slice(cfg: &EngineConfig, payloads: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let h = Header::for_config(cfg);
    let mut buf = Vec::with_capacity(64 + payloads.iter().map(|(_, b)| b.len() + 8).sum::<usize>());
    buf.extend_from_slice(SLICE_MAGIC);
    for v in [h.model, h.seed, h.partitions, h.n, h.m, h.d, h.alpha] {
        put_uvarint(&mut buf, v);
    }
    put_uvarint(&mut buf, payloads.len() as u64);
    let mut last: Option<u32> = None;
    for (p, bytes) in payloads {
        assert!((*p as usize) < cfg.partitions, "partition id out of range");
        assert!(last.is_none_or(|q| q < *p), "payloads sorted and unique");
        last = Some(*p);
        put_uvarint(&mut buf, *p as u64);
        put_uvarint(&mut buf, bytes.len() as u64);
        buf.extend_from_slice(bytes);
    }
    buf
}

/// Split a slice checkpoint into its header and the carried payloads
/// (sorted by partition id, each `< header.partitions`).
pub fn decode_slice(bytes: &[u8]) -> Result<(Header, PartitionPayloads), CheckpointError> {
    if bytes.len() < SLICE_MAGIC.len() || &bytes[..SLICE_MAGIC.len()] != SLICE_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut pos = SLICE_MAGIC.len();
    let header = Header::get(bytes, &mut pos)?;
    let count = get_uvarint(bytes, &mut pos).ok_or(CheckpointError::Truncated)?;
    if count > header.partitions {
        return Err(CheckpointError::Corrupt(format!(
            "slice carries {count} payloads but the space has {} partitions",
            header.partitions
        )));
    }
    // Every payload costs at least its id and length bytes.
    if count > (bytes.len() - pos) as u64 / 2 {
        return Err(CheckpointError::Truncated);
    }
    let mut payloads = Vec::with_capacity(count as usize);
    let mut last: Option<u64> = None;
    for _ in 0..count {
        let p = get_uvarint(bytes, &mut pos).ok_or(CheckpointError::Truncated)?;
        if p >= header.partitions {
            return Err(CheckpointError::Corrupt(format!(
                "slice names partition {p} of {}",
                header.partitions
            )));
        }
        if last.is_some_and(|q| q >= p) {
            return Err(CheckpointError::Corrupt(
                "slice partitions are not sorted and unique".into(),
            ));
        }
        last = Some(p);
        let len = get_uvarint(bytes, &mut pos).ok_or(CheckpointError::Truncated)? as usize;
        let end = pos.checked_add(len).ok_or(CheckpointError::Truncated)?;
        if end > bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        payloads.push((p as u32, bytes[pos..end].to_vec()));
        pos = end;
    }
    if pos != bytes.len() {
        return Err(CheckpointError::Corrupt("trailing bytes".into()));
    }
    Ok((header, payloads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fews_core::insertion_only::FewwConfig;

    fn cfg() -> EngineConfig {
        EngineConfig::insert_only(FewwConfig::new(32, 8, 2), 7).with_partitions(3)
    }

    #[test]
    fn container_roundtrip() {
        let payloads = vec![(0u32, vec![1, 2, 3]), (1, vec![]), (2, vec![9; 300])];
        let bytes = encode(&cfg(), &payloads);
        let (header, back) = decode(&bytes).unwrap();
        assert_eq!(header, Header::for_config(&cfg()));
        assert_eq!(back, payloads);
        header.check_against(&cfg()).unwrap();
    }

    #[test]
    fn rejects_bad_magic_truncation_and_trailing() {
        let payloads = vec![(0u32, vec![1]), (1, vec![2]), (2, vec![3])];
        let bytes = encode(&cfg(), &payloads);
        assert_eq!(decode(b"NOTACKPT"), Err(CheckpointError::BadMagic));
        assert_eq!(
            decode(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode(&trailing),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn header_mismatch_is_reported() {
        let payloads = vec![(0u32, vec![]), (1, vec![]), (2, vec![])];
        let bytes = encode(&cfg(), &payloads);
        let (header, _) = decode(&bytes).unwrap();
        let other = EngineConfig::insert_only(FewwConfig::new(64, 8, 2), 7).with_partitions(3);
        assert!(matches!(
            header.check_against(&other),
            Err(CheckpointError::ConfigMismatch(_))
        ));
    }

    /// The parent's v2 layout, hand-encoded: magic, space, `wal_seq`, inner.
    fn v2_envelope(space: &str, wal_seq: u64, inner: &[u8]) -> Vec<u8> {
        let mut buf = b"FEWWCKP2".to_vec();
        put_uvarint(&mut buf, space.len() as u64);
        buf.extend_from_slice(space.as_bytes());
        put_uvarint(&mut buf, wal_seq);
        buf.extend_from_slice(inner);
        buf
    }

    #[test]
    fn envelope_roundtrips_and_v1_maps_to_default_space() {
        let payloads = vec![(0u32, vec![1, 2]), (1, vec![]), (2, vec![7; 40])];
        let inner = encode(&cfg(), &payloads);
        // A node's envelope: the ack watermark is the WAL watermark.
        let wrapped = wrap_envelope("tenant-3", 917, &inner);
        assert_eq!(&wrapped[..8], ENVELOPE_MAGIC);
        let env = unwrap_envelope(&wrapped).unwrap();
        assert_eq!(env.space, "tenant-3");
        assert_eq!(env.wal_seq, 917);
        assert_eq!(env.acked, Some(917));
        assert_eq!(env.inner, &inner[..]);
        decode(env.inner).unwrap();
        // A router's: the ack watermark counts updates, not records.
        let wrapped = wrap_acked("default", 16, 16_384, &inner);
        let env = unwrap_envelope(&wrapped).unwrap();
        assert_eq!((env.wal_seq, env.acked), (16, Some(16_384)));
        assert_eq!(env.inner, &inner[..]);
        // A v2 envelope carries no ack watermark.
        let old = v2_envelope("tenant-3", 917, &inner);
        let env = unwrap_envelope(&old).unwrap();
        assert_eq!(env.space, "tenant-3");
        assert_eq!((env.wal_seq, env.acked), (917, None));
        assert_eq!(env.inner, &inner[..]);
        // A bare v1 container is the default space at watermark 0.
        let env = unwrap_envelope(&inner).unwrap();
        assert_eq!(env.space, "default");
        assert_eq!((env.wal_seq, env.acked), (0, None));
        assert_eq!(env.inner, &inner[..]);
    }

    #[test]
    fn slice_container_roundtrip() {
        let payloads = vec![(0u32, vec![4, 5]), (2, vec![9; 120])];
        let bytes = encode_slice(&cfg(), &payloads);
        let (header, back) = decode_slice(&bytes).unwrap();
        assert_eq!(header, Header::for_config(&cfg()));
        assert_eq!(back, payloads);
        // An empty slice is legal (a node that owns nothing yet).
        let empty = encode_slice(&cfg(), &[]);
        let (_, back) = decode_slice(&empty).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn slice_rejects_damage() {
        let payloads = vec![(1u32, vec![7]), (2, vec![8])];
        let bytes = encode_slice(&cfg(), &payloads);
        // A full container is not a slice and vice versa.
        assert_eq!(decode_slice(b"FEWWCKP1"), Err(CheckpointError::BadMagic));
        assert_eq!(
            decode_slice(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_slice(&trailing),
            Err(CheckpointError::Corrupt(_))
        ));
        // Partition id beyond P: patch the first id varint (3 fits one byte).
        let mut bad = encode_slice(&cfg(), &[(1u32, vec![])]);
        let id_at = bad.len() - 2;
        bad[id_at] = 3;
        assert!(matches!(
            decode_slice(&bad),
            Err(CheckpointError::Corrupt(_))
        ));
        // Duplicate / unsorted partition ids.
        let dup = {
            let mut buf = encode_slice(&cfg(), &[]);
            buf.pop(); // drop count 0
            put_uvarint(&mut buf, 2);
            for _ in 0..2 {
                put_uvarint(&mut buf, 1); // partition 1 twice
                put_uvarint(&mut buf, 0);
            }
            buf
        };
        assert!(matches!(
            decode_slice(&dup),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    /// A header or slice count of 2⁴⁰ or `u64::MAX` with no body behind it
    /// is refused as truncated, never trusted as an allocation size.
    #[test]
    fn huge_counts_are_refused_before_allocating() {
        for huge in [1u64 << 40, u64::MAX] {
            let mut full = MAGIC.to_vec();
            let mut slice = SLICE_MAGIC.to_vec();
            for v in [0, 2021, huge, 64, 0, 8, 2] {
                put_uvarint(&mut full, v);
                put_uvarint(&mut slice, v);
            }
            assert_eq!(decode(&full), Err(CheckpointError::Truncated));
            put_uvarint(&mut slice, huge);
            assert_eq!(decode_slice(&slice), Err(CheckpointError::Truncated));
        }
    }

    #[test]
    fn envelope_rejects_damage() {
        assert!(matches!(
            unwrap_envelope(b"NOTANENV"),
            Err(CheckpointError::BadMagic)
        ));
        assert!(matches!(
            unwrap_envelope(b"FEWW"),
            Err(CheckpointError::BadMagic)
        ));
        // Truncation inside the envelope header: the v3 layout ends at
        // `acked` (byte 12 here), the v2 layout at `wal_seq` (byte 11).
        let wrapped = wrap_acked("t", 3, 5, b"FEWWCKP1x");
        for cut in 8..12 {
            assert!(unwrap_envelope(&wrapped[..cut]).is_err(), "v3 cut at {cut}");
        }
        let old = v2_envelope("t", 3, b"FEWWCKP1x");
        for cut in 8..11 {
            assert!(unwrap_envelope(&old[..cut]).is_err(), "v2 cut at {cut}");
        }
        // Absurd name length, in either layout.
        for magic in [b"FEWWCKP3", b"FEWWCKP2"] {
            let mut bad = magic.to_vec();
            bad.push(0xFF);
            bad.push(0x10); // varint 2063 > MAX_SPACE_NAME
            assert!(matches!(
                unwrap_envelope(&bad),
                Err(CheckpointError::Corrupt(_))
            ));
        }
    }
}
