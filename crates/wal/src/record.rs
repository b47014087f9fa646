//! Record framing: length-prefixed payloads with CRC32 integrity.
//!
//! Every record in a log segment is
//!
//! ```text
//! [len: u32 LE] [crc32(len ‖ payload): u32 LE] [payload bytes]
//! ```
//!
//! The CRC covers the length prefix as well as the payload. Covering the
//! length matters beyond catching corrupted length fields: a region of
//! **zeros** (a crash after a filesystem extended the file but before the
//! data blocks hit disk — the classic WAL zero-page hazard) would
//! otherwise frame as an endless run of valid empty records, because
//! `crc32(b"") == 0`; with the length folded in, eight zero bytes never
//! form a valid frame. [`scan`] walks a segment's byte region and
//! classifies its end: clean EOF, or a damaged tail at a known offset —
//! the caller truncates there, so a torn write from a crash (or a flipped
//! bit from a bad disk) costs the tail, never the whole log.

/// Bytes of framing before each payload (length + CRC).
pub const RECORD_HEADER_BYTES: usize = 8;

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3 polynomial), the framing checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

fn crc_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = CRC_TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// The framing checksum of one record: CRC-32 over the little-endian
/// length bytes followed by the payload (see the module docs for why the
/// length must be covered).
pub fn record_crc(len: u32, payload: &[u8]) -> u32 {
    let state = crc_update(0xFFFF_FFFF, &len.to_le_bytes());
    crc_update(state, payload) ^ 0xFFFF_FFFF
}

/// Frame one payload into its on-disk record bytes.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    #[expect(
        clippy::expect_used,
        reason = "payloads are single checkpoint/drain frames, bounded far below 4 GiB by the segment size cap"
    )]
    let len = u32::try_from(payload.len()).expect("record payload fits u32");
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&record_crc(len, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why a scan stopped before the end of the byte region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanDamage {
    /// The framing header or payload runs past the end of the region
    /// (a torn write: the crash landed mid-record).
    Torn,
    /// The payload bytes do not match their recorded CRC (bit rot, or a
    /// corrupted length field misframing the stream).
    CrcMismatch,
}

impl std::fmt::Display for ScanDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanDamage::Torn => write!(f, "torn record (truncated mid-write)"),
            ScanDamage::CrcMismatch => write!(f, "payload CRC mismatch"),
        }
    }
}

/// The result of scanning a segment's record region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan {
    /// The intact payloads, in log order.
    pub payloads: Vec<Vec<u8>>,
    /// Byte offset (relative to the scanned region's start) just past the
    /// last intact record — the truncation point when damage follows.
    pub good_end: usize,
    /// Damage at `good_end`, if the region did not end cleanly.
    pub damage: Option<ScanDamage>,
}

/// Walk `bytes` from `start`, collecting intact records until clean EOF or
/// damage. Never panics on hostile input: every length is bounds-checked
/// before use, so a bit-flipped length field degrades into reported
/// damage, not an allocation blow-up or slice panic.
pub fn scan(bytes: &[u8], start: usize) -> Scan {
    let mut pos = start.min(bytes.len());
    let mut payloads = Vec::new();
    loop {
        if pos == bytes.len() {
            return Scan {
                payloads,
                good_end: pos,
                damage: None,
            };
        }
        if bytes.len() - pos < RECORD_HEADER_BYTES {
            return Scan {
                payloads,
                good_end: pos,
                damage: Some(ScanDamage::Torn),
            };
        }
        #[expect(
            clippy::expect_used,
            reason = "fixed ranges inside the header length checked above"
        )]
        let (len, crc) = (
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize,
            u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes")),
        );
        let body_start = pos + RECORD_HEADER_BYTES;
        if bytes.len() - body_start < len {
            return Scan {
                payloads,
                good_end: pos,
                damage: Some(ScanDamage::Torn),
            };
        }
        let payload = &bytes[body_start..body_start + len];
        if record_crc(len as u32, payload) != crc {
            return Scan {
                payloads,
                good_end: pos,
                damage: Some(ScanDamage::CrcMismatch),
            };
        }
        payloads.push(payload.to_vec());
        pos = body_start + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_then_scan_roundtrips() {
        let mut bytes = Vec::new();
        let payloads: Vec<Vec<u8>> = vec![b"a".to_vec(), vec![], vec![7u8; 300]];
        for p in &payloads {
            bytes.extend_from_slice(&frame(p));
        }
        let scan = scan(&bytes, 0);
        assert_eq!(scan.payloads, payloads);
        assert_eq!(scan.good_end, bytes.len());
        assert_eq!(scan.damage, None);
    }

    #[test]
    fn zero_filled_tail_is_damage_not_phantom_records() {
        // A crash can leave the file extended with zero pages (size
        // committed before data). Zeros must never frame as records —
        // len=0, crc=0 would match crc32("")==0 if the length were not
        // covered by the checksum.
        let mut bytes = frame(b"real");
        let keep = bytes.len();
        bytes.extend_from_slice(&[0u8; 64]);
        let scan = scan(&bytes, 0);
        assert_eq!(scan.payloads, vec![b"real".to_vec()]);
        assert_eq!(scan.good_end, keep);
        assert_eq!(scan.damage, Some(ScanDamage::CrcMismatch));
    }

    #[test]
    fn torn_tail_stops_at_last_intact_record() {
        let mut bytes = frame(b"first");
        let keep = bytes.len();
        bytes.extend_from_slice(&frame(b"second"));
        for cut in keep + 1..bytes.len() {
            let scan = scan(&bytes[..cut], 0);
            assert_eq!(scan.payloads, vec![b"first".to_vec()], "cut at {cut}");
            assert_eq!(scan.good_end, keep);
            assert_eq!(scan.damage, Some(ScanDamage::Torn));
        }
    }

    #[test]
    fn flipped_bit_is_crc_damage_not_panic() {
        let mut bytes = frame(b"first");
        let keep = bytes.len();
        bytes.extend_from_slice(&frame(b"second-record-payload"));
        for i in keep..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0x40;
            let scan = scan(&copy, 0);
            assert_eq!(scan.payloads, vec![b"first".to_vec()], "flip at {i}");
            assert_eq!(scan.good_end, keep);
            assert!(scan.damage.is_some(), "flip at {i} must be reported");
        }
    }
}
