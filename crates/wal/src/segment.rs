//! Log segment files: naming, headers, and directory listing.
//!
//! The log is a sequence of monotonically numbered segment files,
//! `wal-<seq:016x>.seg`. Each starts with a fixed 24-byte header — an
//! 8-byte magic, the segment's own sequence number, and the byte length
//! its predecessor was sealed at (all little-endian) — so a misnamed or
//! cross-wired file is detected before any record in it is trusted, and a
//! sealed segment that lost bytes *at an exact record boundary* (which
//! frames cleanly and would otherwise splice its successor's records onto
//! a silently shortened prefix) is caught by the successor's recorded
//! length. Records follow back to back in [`record`](crate::record)
//! framing. Only the highest-numbered segment is ever written; lower ones
//! are sealed, and checkpoint compaction deletes sealed segments wholly
//! behind the checkpoint position.

use std::path::{Path, PathBuf};

/// Magic prefix of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"ANNOWAL1";

/// Bytes of segment header before the first record (magic + seq +
/// predecessor's sealed length).
pub const SEGMENT_HEADER_BYTES: u64 = 24;

/// File name of segment `seq`.
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:016x}.seg")
}

/// Full path of segment `seq` under `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(segment_file_name(seq))
}

/// Parse a directory entry name back into a segment sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// The 24 header bytes of segment `seq`, whose predecessor (if any) was
/// sealed at `prev_len` bytes.
pub fn segment_header(seq: u64, prev_len: u64) -> [u8; 24] {
    let mut h = [0u8; 24];
    h[..8].copy_from_slice(SEGMENT_MAGIC);
    h[8..16].copy_from_slice(&seq.to_le_bytes());
    h[16..].copy_from_slice(&prev_len.to_le_bytes());
    h
}

/// Validate a segment file's header against the seq its name claims,
/// returning the predecessor's recorded sealed length. `Err` describes
/// the mismatch (wrong magic, wrong embedded seq, or a file too short to
/// even hold a header).
pub fn parse_header(bytes: &[u8], expect_seq: u64) -> Result<u64, String> {
    if bytes.len() < SEGMENT_HEADER_BYTES as usize {
        return Err(format!(
            "segment file too short for header ({} bytes)",
            bytes.len()
        ));
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        return Err("bad segment magic".into());
    }
    #[expect(
        clippy::expect_used,
        reason = "fixed ranges inside the header length checked above"
    )]
    let (seq, prev_len) = (
        u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
        u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")),
    );
    if seq != expect_seq {
        return Err(format!(
            "segment header seq {seq} does not match file name seq {expect_seq}"
        ));
    }
    Ok(prev_len)
}

/// All segment sequence numbers present in `dir`, ascending. Non-segment
/// files are ignored (the checkpoint lives alongside the segments).
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for seq in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(parse_segment_name(&segment_file_name(seq)), Some(seq));
        }
        assert_eq!(parse_segment_name("checkpoint.bin"), None);
        assert_eq!(parse_segment_name("wal-zz.seg"), None);
        assert_eq!(parse_segment_name("wal-0000000000000000.log"), None);
    }

    #[test]
    fn headers_validate_magic_and_seq() {
        let h = segment_header(42, 1234);
        assert_eq!(parse_header(&h, 42), Ok(1234));
        assert!(parse_header(&h, 41).is_err());
        assert!(parse_header(&h[..10], 42).is_err());
        let mut bad = h;
        bad[0] ^= 1;
        assert!(parse_header(&bad, 42).is_err());
    }
}
